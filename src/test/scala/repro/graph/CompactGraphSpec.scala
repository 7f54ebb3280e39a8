package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.CompactGraphOps._

class CompactGraphSpec extends AnyFunSuite with SparkSpec {

  private val triangle = CompactGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.3), (2, 0, 0.9)))

  test("n and m are recorded") {
    assert(triangle.n == 3)
    assert(triangle.m == 3)
  }

  test("out-degrees match edge list") {
    assert((0 until 3).map(triangle.outDeg) == Seq(1, 1, 1))
  }

  test("in-degrees match edge list") {
    assert((0 until 3).map(triangle.inDeg) == Seq(1, 1, 1))
  }

  test("out adjacency iterates correct edges") {
    var seen = List.empty[(Int, Int)]
    triangle.foreachOutEdge(0)(e => seen ::= (triangle.srcs(e), triangle.dsts(e)))
    assert(seen == List((0, 1)))
  }

  test("in adjacency iterates correct edges") {
    var seen = List.empty[(Int, Int)]
    triangle.foreachInEdge(2)(e => seen ::= (triangle.srcs(e), triangle.dsts(e)))
    assert(seen == List((1, 2)))
  }

  test("probabilities preserved per edge") {
    assert(triangle.probs.toSeq == Seq(0.5, 0.3, 0.9))
  }

  test("multi-edge node adjacency is complete and id-ordered") {
    val g = CompactGraph.fromEdges(4, Seq((0, 3, 0.1), (1, 3, 0.2), (2, 3, 0.3), (3, 0, 0.4)))
    assert(g.inDeg(3) == 3)
    assert(g.inEdgesOf(3).toSeq == Seq(0, 1, 2)) // ascending edge ids
    assert(g.inEdgesOf(3).map(g.srcs).toSeq == Seq(0, 1, 2))
  }

  test("isolated nodes have zero degree") {
    val g = CompactGraph.fromEdges(5, Seq((0, 1, 1.0)))
    assert(g.outDeg(4) == 0 && g.inDeg(4) == 0)
    assert(g.outDeg(2) == 0 && g.inDeg(2) == 0)
  }

  test("fromEdges validates node range") {
    intercept[IllegalArgumentException](CompactGraph.fromEdges(2, Seq((0, 2, 0.5))))
    intercept[IllegalArgumentException](CompactGraph.fromEdges(2, Seq((-1, 0, 0.5))))
  }

  test("fromEdges validates probability range") {
    intercept[IllegalArgumentException](CompactGraph.fromEdges(2, Seq((0, 1, 1.5))))
    intercept[IllegalArgumentException](CompactGraph.fromEdges(2, Seq((0, 1, -0.1))))
  }

  test("weightedCascade assigns 1/indeg") {
    val g = CompactGraph.weightedCascade(3, Seq((0, 2), (1, 2), (2, 0)))
    val intoTwo = g.inEdgesOf(2).map(g.probs).toSeq
    assert(intoTwo == Seq(0.5, 0.5))
    assert(g.inEdgesOf(0).map(g.probs).toSeq == Seq(1.0))
  }

  test("weightedCascade probabilities into each node sum to 1") {
    val edges = Seq((0, 1), (2, 1), (3, 1), (1, 0), (3, 0))
    val g = CompactGraph.weightedCascade(4, edges)
    for (v <- Seq(0, 1)) {
      val sum = g.inEdgesOf(v).map(g.probs).sum
      assert(math.abs(sum - 1.0) < 1e-12, s"node $v sum=$sum")
    }
  }

  test("weightedCascade from arc keys rejects unsorted and duplicate keys") {
    val unsorted = intercept[IllegalArgumentException](
      CompactGraph.weightedCascade(3, Array(1L, 5L, 2L, 7L), 4))
    assert(unsorted.getMessage.contains("keys(2)"))
    val duplicate = intercept[IllegalArgumentException](
      CompactGraph.weightedCascade(3, Array(1L, 2L, 2L), 3))
    assert(duplicate.getMessage.contains("keys(2)"))
    // Keys past m are ignored.
    assert(CompactGraph.weightedCascade(3, Array(1L, 2L, 0L), 2).m == 2)
  }

  test("edges given in any order build the same graph and realizations") {
    val rnd = new scala.util.Random(23)
    (0 until 40).foreach { trial =>
      val n = 2 + rnd.nextInt(60)
      val arcs = Seq.fill(rnd.nextInt(4 * n))((rnd.nextInt(n), rnd.nextInt(n)))
        .filter { case (u, v) => u != v }.distinct
      // Each node's in-probabilities sum to at most 1, so LT runs on them too.
      val indeg = arcs.groupMapReduce(_._2)(_ => 1)(_ + _)
      val edges = arcs.map { case (u, v) => (u, v, rnd.nextDouble() / indeg(v)) }
      val (a, b) = (rnd.shuffle(edges), rnd.shuffle(edges))
      val pairs = Seq(
        CompactGraph.fromEdges(n, a) -> CompactGraph.fromEdges(n, b),
        CompactGraph.weightedCascade(n, a.map(e => (e._1, e._2))) ->
          CompactGraph.weightedCascade(n, b.map(e => (e._1, e._2))))
      for ((g, h) <- pairs) {
        for ((x, y) <- Seq(g.srcs -> h.srcs, g.dsts -> h.dsts, g.outOff -> h.outOff,
                           g.inOff -> h.inOff, g.inEdge -> h.inEdge))
          assert(x.sameElements(y), s"trial $trial")
        assert(g.probs.sameElements(h.probs), s"trial $trial")
        for (model <- DiffusionModel.all) {
          val seed = rnd.nextLong()
          val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
          assert(new Realization(g, model, seed).forwardReachable(seeds, null).toSeq ==
                   new Realization(h, model, seed).forwardReachable(seeds, null).toSeq,
                 s"trial $trial, $model")
        }
      }
    }
  }

  test("sharedP marks the nodes whose in-edges share one probability in (0, 1)") {
    val wc = CompactGraph.weightedCascade(5, Seq((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))
    // A table starts at P(L = 0) = (1 − p)^d.
    assert(wc.sharedP(2) == 0.5 && wc.icCdf(wc.icCdfOff(2)) == 0.25)
    assert(wc.sharedP(3) == 1.0 / 3 && wc.icCdf(wc.icCdfOff(3)) == math.pow(1 - 1.0 / 3, 3))
    // No in-edges (0, 4), and a single in-edge of probability 1 (1).
    assert(Seq(0, 1, 4).forall(v => wc.sharedP(v).isNaN && wc.icCdfOff(v) == -1))
    val mixed = CompactGraph.fromEdges(3, Seq((0, 2, 0.5), (1, 2, 0.4), (0, 1, 0.0)))
    assert(mixed.sharedP(2).isNaN && mixed.sharedP(1).isNaN)
    // 2^-1000 is a normal double; 2^-1100 is not.
    val star = (d: Int) => CompactGraph.fromEdges(d + 1, (1 to d).map(u => (u, 0, 0.5)))
    assert(star(1000).sharedP(0) == 0.5 && star(1000).icCdf(star(1000).icCdfOff(0)) == math.pow(0.5, 1000))
    assert(star(1100).sharedP(0).isNaN)
  }

  test("icCdf holds each node's Binomial(d, p) CDF as sequential inversion sums it, shared at equal (d, p)") {
    // Nodes 4 and 5 share (3, 0.5), node 6 has (3, 0.3), node 7 (2, 0.5).
    val g = CompactGraph.fromEdges(8, Seq(
      (0, 4, 0.5), (1, 4, 0.5), (2, 4, 0.5), (1, 5, 0.5), (2, 5, 0.5), (3, 5, 0.5),
      (0, 6, 0.3), (1, 6, 0.3), (2, 6, 0.3), (0, 7, 0.5), (3, 7, 0.5)))
    assert(g.icCdfOff(4) == g.icCdfOff(5))
    assert(Set(4, 6, 7).map(g.icCdfOff).size == 3 && g.icCdf.length == 3 + 3 + 2)
    assert((0 until 4).forall(g.icCdfOff(_) == -1))
    for (v <- 4 to 7) {
      val (d, p) = (g.inDeg(v), g.sharedP(v))
      // The loop that walked the CDF at every draw, step by step.
      val odds = p / (1 - p)
      var pmf = math.pow(1 - p, d)
      var cdf = pmf
      val binomial = new org.apache.commons.math3.distribution.BinomialDistribution(d, p)
      for (l <- 0 until d) {
        assert(g.icCdf(g.icCdfOff(v) + l) == cdf, s"node $v, l = $l")
        assert(math.abs(cdf - binomial.cumulativeProbability(l)) < 1e-12, s"node $v, l = $l")
        pmf *= odds * (d - l) / (l + 1)
        cdf += pmf
      }
    }
  }

  test("the constructor rejects probabilities outside [0, 1], naming the edge") {
    for (p <- Seq(1.5, -0.1, Double.NaN)) {
      val e = intercept[IllegalArgumentException](new CompactGraph(
        3, Array(0, 1), Array(2, 2), Array(0.5, p), Array(0, 1, 2, 2), Array(0, 0, 0, 2), Array(0, 1)))
      assert(e.getMessage.contains("edge 1 (1 -> 2)") && e.getMessage.contains(p.toString), e.getMessage)
    }
    new CompactGraph(3, Array(0, 1), Array(2, 2), Array(0.0, 1.0), Array(0, 1, 2, 2), Array(0, 0, 0, 2), Array(0, 1))
  }

  test("edgesDF round-trips the edge list") {
    val rows = triangle.edgesDF(spark).collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
    assert(rows.toSet == Set((0, 1, 0.5), (1, 2, 0.3), (2, 0, 0.9)))
  }

  test("fromDF compiles a DataFrame edge list with weighted cascade") {
    import spark.implicits._
    val df = Seq((0, 1), (2, 1)).toDF("src", "dst")
    val g = ReferenceGraphGen.fromDF(df, 3)
    assert(g.n == 3 && g.m == 2)
    assert(g.inEdgesOf(1).map(g.probs).toSeq == Seq(0.5, 0.5))
  }

  test("offsets are monotone and end at m") {
    val g = GraphGen.fig2
    assert(g.outOff.last == g.m && g.inOff.last == g.m)
    assert(g.outOff.sliding(2).forall(p => p(0) <= p(1)))
    assert(g.inOff.sliding(2).forall(p => p(0) <= p(1)))
  }

  test("graph is serializable (broadcastable)") {
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    out.writeObject(triangle) // throws if not serializable
    out.close()
  }
}
