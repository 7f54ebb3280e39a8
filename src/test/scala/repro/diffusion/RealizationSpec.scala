package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.RealizationOps._
import repro.graph.CompactGraphOps._
import repro.graph.{CompactGraph, GraphGen}
import repro.util.Rng

class RealizationSpec extends AnyFunSuite with SparkSpec {

  private val fig2 = GraphGen.fig2

  test("icLive is deterministic per (seed, edge)") {
    val r = new Realization(fig2, DiffusionModel.IC, 123L)
    (0 until fig2.m).foreach(e => assert(r.icLive(e) == r.icLive(e)))
  }

  test("icLive honors probability 1 edges") {
    val r = new Realization(fig2, DiffusionModel.IC, 5L)
    // Edges 2 and 3 have p = 1.0 and must always be live.
    assert(r.icLive(2) && r.icLive(3))
  }

  test("icLive empirical frequency matches edge probability") {
    val g = GraphGen.line(2, 0.3)
    val live = (0 until 20000).count(s => new Realization(g, DiffusionModel.IC, s.toLong).icLive(0))
    assert(math.abs(live / 20000.0 - 0.3) < 0.02, s"freq=${live / 20000.0}")
  }

  test("different seeds give different realizations") {
    val g = GraphGen.line(30, 0.5)
    val a = (0 until g.m).map(new Realization(g, DiffusionModel.IC, 1L).icLive)
    val b = (0 until g.m).map(new Realization(g, DiffusionModel.IC, 2L).icLive)
    assert(a != b)
  }

  test("ltChosen returns a valid in-edge or -1") {
    // Figure 2's shape with LT-valid probabilities: v4's in-edges sum to 0.9.
    val g = CompactGraph.fromEdges(4, Seq((0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.4)))
    (0 until 50).foreach { s =>
      val r = new Realization(g, DiffusionModel.LT, s.toLong)
      (0 until g.n).foreach { v =>
        val e = r.ltChosen(v)
        assert(e == -1 || g.dsts(e) == v)
      }
    }
  }

  test("ltChosen with total in-probability 1 always picks an edge") {
    val g = CompactGraph.weightedCascade(3, Seq((0, 2), (1, 2)))
    (0 until 200).foreach { s =>
      val r = new Realization(g, DiffusionModel.LT, s.toLong)
      assert(r.ltChosen(2) >= 0)
    }
  }

  test("ltChosen empirical distribution matches weights") {
    val g = CompactGraph.fromEdges(3, Seq((0, 2, 0.2), (1, 2, 0.5)))
    var c0 = 0; var c1 = 0; var none = 0
    (0 until 20000).foreach { s =>
      new Realization(g, DiffusionModel.LT, s.toLong).ltChosen(2) match {
        case 0 => c0 += 1
        case 1 => c1 += 1
        case -1 => none += 1
        case other => fail(s"unexpected edge $other")
      }
    }
    assert(math.abs(c0 / 20000.0 - 0.2) < 0.02)
    assert(math.abs(c1 / 20000.0 - 0.5) < 0.02)
    assert(math.abs(none / 20000.0 - 0.3) < 0.02)
  }

  test("forwardReachable on deterministic line covers everything") {
    val g = GraphGen.line(6, 1.0)
    val r = new Realization(g, DiffusionModel.IC, 9L)
    assert(r.forwardReachable(Array(0), null).sorted.toSeq == (0 until 6))
    assert(r.forwardReachable(Array(3), null).sorted.toSeq == Seq(3, 4, 5))
    // With no live edges, only the seeds are reached.
    val none = new Realization(CompactGraph.fromEdges(5, Seq.empty), DiffusionModel.IC, 9L)
    assert(none.forwardReachable(Array(1, 3), null).sorted.toSeq == Seq(1, 3))
  }

  test("forwardReachable respects the eligibility mask") {
    val g = GraphGen.line(6, 1.0)
    val r = new Realization(g, DiffusionModel.IC, 9L)
    val eligible = Array(true, true, true, false, true, true)
    // Node 3 blocks the chain: reachable = {0,1,2}.
    assert(r.forwardReachable(Array(0), eligible).sorted.toSeq == Seq(0, 1, 2))
  }

  test("ineligible seeds are skipped") {
    val g = GraphGen.line(4, 1.0)
    val r = new Realization(g, DiffusionModel.IC, 1L)
    val eligible = Array(false, true, true, true)
    assert(r.forwardReachable(Array(0), eligible).isEmpty)
  }

  test("spread equals forward reachable size") {
    val g = GraphGen.star(8, 1.0)
    val r = new Realization(g, DiffusionModel.IC, 3L)
    assert(r.spread(Array(0)) == 8)
    assert(r.spread(Array(1)) == 1)
  }

  test("duplicate seeds are counted once") {
    val g = GraphGen.line(3, 1.0)
    val r = new Realization(g, DiffusionModel.IC, 1L)
    assert(r.spread(Array(0, 0, 0)) == 3)
  }

  test("LT forward propagation follows chosen edges only") {
    val g = CompactGraph.fromEdges(3, Seq((0, 2, 0.5), (1, 2, 0.5)))
    (0 until 100).foreach { s =>
      val r = new Realization(g, DiffusionModel.LT, s.toLong)
      val chosen = r.ltChosen(2)
      val spreadFrom0 = r.spread(Array(0))
      if (chosen == 0) assert(spreadFrom0 == 2) else assert(spreadFrom0 == 1)
    }
  }

  test("liveEdgesDF matches liveInto for IC") {
    val g = GraphGen.fig2
    val r = new Realization(g, DiffusionModel.IC, 77L)
    val live = r.liveEdgesDF(spark).collect().map(x => (x.getInt(0), x.getInt(1))).toSet
    val expected = (0 until g.m).filter(r.liveInto).map(e => (g.srcs(e), g.dsts(e))).toSet
    assert(live == expected)
  }

  test("liveEdgesDF under LT has at most one live in-edge per node") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val r = new Realization(g, DiffusionModel.LT, 5L)
    val perNode = r.liveEdgesDF(spark).groupBy("dst").count().collect()
    assert(perNode.forall(_.getLong(1) <= 1))
  }

  test("realization consistency: repeated queries agree (progressive revelation)") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val r = new Realization(g, DiffusionModel.IC, 31L)
    val full = r.forwardReachable(Array(0), null).toSet
    // Restricting to the full mask must reproduce the same set.
    val mask = Array.fill(g.n)(true)
    assert(r.forwardReachable(Array(0), mask).toSet == full)
  }

  /** Reference BFS with a boxed `ArrayDeque` queue and a `liveInto` draw per
    * examined edge; `forwardReachable` must match it in content and order.
    */
  private def boxedReachable(r: Realization, seeds: Array[Int], eligible: Array[Boolean]): Array[Int] = {
    val g = r.graph
    val visited = new Array[Boolean](g.n)
    val queue = new java.util.ArrayDeque[Integer]()
    val out = Array.newBuilder[Int]
    seeds.foreach { s =>
      if (!visited(s) && (eligible == null || eligible(s))) {
        visited(s) = true; queue.add(s); out += s
      }
    }
    while (!queue.isEmpty) {
      val u = queue.poll().intValue()
      g.foreachOutEdge(u) { e =>
        val v = g.dsts(e)
        if (!visited(v) && (eligible == null || eligible(v)) && r.liveInto(e)) {
          visited(v) = true; queue.add(v); out += v
        }
      }
    }
    out.result()
  }

  test("forwardReachable matches the boxed BFS in content and order") {
    val rnd = new scala.util.Random(17)
    (0 until 60).foreach { trial =>
      val n = 2 + rnd.nextInt(80)
      val edges = Seq.fill(rnd.nextInt(4 * n))((rnd.nextInt(n), rnd.nextInt(n)))
        .filter { case (u, v) => u != v }.distinct
      val wc = CompactGraph.weightedCascade(n, edges)
      val uniformP = CompactGraph.fromEdges(n, edges.map { case (u, v) => (u, v, rnd.nextDouble()) })
      for ((g, model) <- Seq((wc, DiffusionModel.IC), (wc, DiffusionModel.LT), (uniformP, DiffusionModel.IC))) {
        val r = new Realization(g, model, rnd.nextLong())
        // The BFS draws IC liveness from Rng.uniform's values.
        assert((0 until g.m).forall(e => r.icLive(e) == (Rng.uniform(r.seed, e) < g.probs(e))))
        val picked = Array.fill(rnd.nextInt(6))(rnd.nextInt(n))
        val seeds = picked ++ picked.take(2) // duplicates
        val mask = Array.fill(n)(rnd.nextDouble() < 0.7)
        if (seeds.nonEmpty) mask(seeds(0)) = false // an ineligible seed
        for (eligible <- Seq(null, mask)) {
          val fast = r.forwardReachable(seeds, eligible).toSeq
          val ref = boxedReachable(r, seeds, eligible).toSeq
          assert(fast == ref, s"trial $trial, $model, mask ${eligible != null}")
        }
      }
    }
  }
}
