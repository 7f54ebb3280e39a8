package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.RealizationOps._
import repro.graph.CompactGraphOps._
import repro.graph.{CompactGraph, GraphGen}
import repro.util.{PoolFixtures, Rng}

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
    // Node 2 walks its in-edges (unequal p); node 3's three in-edges share
    // p = 0.25, so it takes the O(1) rule, "none" included.
    val g = CompactGraph.fromEdges(4, Seq((0, 2, 0.2), (1, 2, 0.5), (0, 3, 0.25), (1, 3, 0.25), (2, 3, 0.25)))
    assert(g.sharedP(2).isNaN && g.sharedP(3) == 0.25)
    // Weights by the chosen in-edge's source, -1 for "none".
    for ((v, weights) <- Seq(2 -> Map(0 -> 0.2, 1 -> 0.5, -1 -> 0.3),
                             3 -> Map(0 -> 0.25, 1 -> 0.25, 2 -> 0.25, -1 -> 0.25))) {
      val picks = (0 until 20000).map { s =>
        val e = new Realization(g, DiffusionModel.LT, s.toLong).ltChosen(v)
        assert(e == -1 || g.dsts(e) == v, s"node $v picked edge $e")
        if (e < 0) -1 else g.srcs(e)
      }
      weights.foreach { case (u, w) =>
        val freq = picks.count(_ == u) / 20000.0
        assert(math.abs(freq - w) < 0.02, s"node $v, source $u: $freq against $w")
      }
    }
  }

  test("ltChosen picks the in-edge that the walk over its in-edge CDF picks, on every node of the four datasets") {
    // The walk every node took before the O(1) rule, on the same uniform.
    def walk(g: CompactGraph, seed: Long, v: Int): Int = {
      val u = Rng.uniform(seed, 0x517cc1b727220a95L ^ v.toLong)
      var acc = 0.0
      var i = g.inOff(v)
      while (i < g.inOff(v + 1)) {
        val e = g.inEdge(i)
        acc += g.probs(e)
        if (u < acc) return e
        i += 1
      }
      -1
    }
    for (spec <- GraphGen.datasets; g = GraphGen.dataset(spec.name, scale = 1.0)) {
      assert((0 until g.n).count(v => !g.sharedP(v).isNaN) > g.n / 4, spec.name)
      (0 until 20).foreach { s =>
        val r = new Realization(g, DiffusionModel.LT, Rng.state(41L, s))
        var v = 0
        while (v < g.n) {
          if (r.ltChosen(v) != walk(g, r.seed, v)) fail(s"${spec.name}, seed ${r.seed}, node $v")
          v += 1
        }
      }
    }
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
    * examined edge, in visit order; `forwardReachable` must return its nodes
    * in ascending order.
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
          val ref = boxedReachable(r, seeds, eligible).sorted.toSeq
          assert(fast == ref, s"trial $trial, $model, mask ${eligible != null}")
          assert(r.spread(seeds, eligible) == ref.length, s"trial $trial, $model, mask ${eligible != null}")
        }
      }
    }
  }

  /** Traversals for the parallel contract, each with its boxed reference:
    * nethept ×0.05 and random graphs of 200–500 nodes (weighted cascade, IC
    * and LT; uniform probabilities in [0, 1), IC), from 1, 5 and 100 seeds
    * (100 call in the helpers at once), with no mask and with one that
    * excludes a fifth of the nodes.
    */
  private lazy val contract: Seq[(String, Realization, Array[Int], Array[Boolean], Seq[Int])] = {
    val rnd = new scala.util.Random(29)
    val graphs = ("nethept ×0.05", GraphGen.dataset("nethept", scale = 0.05), true) +:
      (0 until 4).flatMap { i =>
        val n = 200 + rnd.nextInt(300)
        val arcs = Seq.fill(6 * n)((rnd.nextInt(n), rnd.nextInt(n))).filter { case (u, v) => u != v }.distinct
        Seq((s"random $i, weighted cascade", CompactGraph.weightedCascade(n, arcs.sorted), true),
            (s"random $i, uniform p", CompactGraph.fromEdges(n, arcs.map { case (u, v) => (u, v, rnd.nextDouble()) }), false))
      }
    for {
      (name, g, lt) <- graphs
      model <- if (lt) DiffusionModel.all else Seq(DiffusionModel.IC)
      k <- Seq(1, 5, 100)
      masked <- Seq(false, true)
    } yield {
      val r = new Realization(g, model, rnd.nextLong())
      val seeds = Array.fill(k)(rnd.nextInt(g.n))
      val eligible = if (masked) Array.fill(g.n)(rnd.nextDouble() < 0.8) else null
      (s"$name, $model, $k seeds, mask $masked", r, seeds, eligible,
       boxedReachable(r, seeds, eligible).sorted.toSeq)
    }
  }

  test("a call while the helpers are free returns what a call while another thread holds them returns") {
    assert(contract.exists(_._5.length >= 300), "no traversal reaches 300 nodes")
    contract.foreach { case (name, r, seeds, eligible, ref) =>
      val free = r.forwardReachable(seeds, eligible)
      val alone = PoolFixtures.whileHeld(r.forwardReachable(seeds, eligible))
      assert(free.toSeq == ref, name)
      assert(alone.toSeq == ref, name)
      assert(r.spread(seeds, eligible) == ref.length &&
             PoolFixtures.whileHeld(r.spread(seeds, eligible)) == ref.length, name)
    }
  }

  test("four threads sharing one realization, calling it at once, each get the reference result") {
    contract.foreach { case (name, r, seeds, eligible, ref) =>
      val start = new java.util.concurrent.CyclicBarrier(4)
      val results = new Array[Seq[Seq[Int]]](4)
      val threads = (0 until 4).map { t =>
        new Thread(() => {
          start.await()
          results(t) = (0 until 5).map(_ => r.forwardReachable(seeds, eligible).toSeq)
        })
      }
      threads.foreach(_.start())
      threads.foreach(_.join(60000))
      results.zipWithIndex.foreach { case (calls, t) =>
        assert(calls != null, s"$name: thread $t did not finish")
        assert(calls.forall(_ == ref), s"$name, thread $t")
      }
    }
  }

  test("the per-thread scratch across its epoch wrap gives the same reached sets") {
    val largest = contract.map(_._2.graph.n).max
    val s = Realization.scratch(largest)
    s.epoch = Int.MaxValue - 5
    val (ic, lt) = contract.take(12).splitAt(6)
    val calls = ic.zip(lt).flatMap { case (a, b) => Seq(a, b) }
    calls.foreach { case (name, r, seeds, eligible, ref) =>
      assert(r.forwardReachable(seeds, eligible).toSeq == ref, name)
    }
    assert(Realization.scratch(largest) eq s, "the scratch was replaced")
    assert(s.epoch > 0 && s.epoch < calls.length, s"epoch ${s.epoch} did not wrap")
  }

  test("a traversal that fails in any participant surfaces in the caller, and the next call is unaffected") {
    // Every edge live, then every 20th edge's target overwritten with a node
    // outside any scratch after the graph constructor's checks: a traversal
    // from 100 seeds fails on whichever participant expands such an edge.
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val dsts = g.dsts.clone()
    val broken = new CompactGraph(g.n, g.srcs, dsts, Array.fill(g.m)(1.0), g.outOff, g.inOff, g.inEdge)
    (0 until g.m by 20).foreach(e => dsts(e) = -5)
    val rnd = new scala.util.Random(31)
    (1 to 20).foreach { call =>
      val seeds = Array.fill(100)(rnd.nextInt(g.n))
      intercept[IndexOutOfBoundsException](new Realization(broken, DiffusionModel.IC, call).spread(seeds))
    }
    contract.foreach { case (name, r, seeds, eligible, ref) =>
      assert(r.forwardReachable(seeds, eligible).toSeq == ref, name)
    }
  }
}
