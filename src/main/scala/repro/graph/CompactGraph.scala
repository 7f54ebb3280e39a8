package repro.graph

/** A probabilistic directed social network in CSR form.
  *
  * Edges are numbered `0 until m` in ascending (src, dst) order;
  * `srcs(e) -> dsts(e)` carries propagation probability `probs(e)`. The edges
  * leaving v are therefore the id range `outOff(v) until outOff(v + 1)`
  * (forward propagation), and an in-adjacency lists the edge ids entering
  * each node (reverse reachable sampling). For the LT model the in-adjacency
  * order of a node defines its live-edge choice order, so it is kept
  * deterministic (sorted by edge id).
  *
  * Node ids are dense `0 until n`. Graphs in this reproduction have at most
  * about a million arcs (youtube at scale 10 has 1.19M), so the CSR lives on
  * the driver; it is `Serializable` so that `MRRSamplerCtx.generateSpark`
  * can broadcast it.
  *
  * Besides the CSR (4(2m + 2n) bytes plus 8m for `probs`), the constructor
  * derives the reverse sampler's arrays once per graph: `inSrc` (4m bytes),
  * `sharedP` (8n), `icCdfOff` (4n) and IC's tables `icCdf` (d doubles per
  * table, one table per distinct in-degree under weighted cascade: 4,557
  * doubles on nethept). Every probability must lie in [0, 1]; the
  * constructor rejects any other, naming the edge.
  */
final class CompactGraph(
    val n: Int,
    val srcs: Array[Int],
    val dsts: Array[Int],
    val probs: Array[Double],
    val outOff: Array[Int],
    val inOff: Array[Int],
    val inEdge: Array[Int] // edge ids grouped by dst
) extends Serializable {

  def m: Int = srcs.length

  CompactGraph.requireProbs(this)

  def inDeg(v: Int): Int = inOff(v + 1) - inOff(v)

  /** The source of in-edge slot i, `srcs(inEdge(i))`, so that the reverse
    * sampler reaches a drawn in-edge's source in one load.
    */
  val inSrc: Array[Int] = CompactGraph.inSources(this)

  /** Per node v: the probability p that all d = indeg(v) of its in-edges
    * share, where the reverse sampler draws v's live in-edges in constant
    * expected work; NaN where it takes the per-edge path. A node qualifies
    * when p ∈ (0, 1) and (1 − p)^d is a normal double, so IC's binomial
    * inversion never starts from an underflowed 0. Under weighted cascade
    * every node with d ≥ 2 qualifies, since (1 − 1/d)^d ≥ 1/4.
    */
  val sharedP: Array[Double] = CompactGraph.sharedProbs(this)

  /** Per node of `sharedP`, the offset of its Binomial(d, p) table in
    * `icCdf`, which nodes of equal (d, p) may share; -1 elsewhere.
    */
  val icCdfOff: Array[Int] = new Array[Int](n)

  /** IC's live-count tables: at offset `icCdfOff(v)`, the d values
    * P(L ≤ l) for l = 0 until d of L ~ Binomial(d, p), summed from
    * P(L = 0) = (1 − p)^d by the recurrence of sequential inversion. A
    * uniform x draws L = the first l with x < P(L ≤ l), or d if none.
    */
  val icCdf: Array[Double] = CompactGraph.binomialTables(this)

  /** The first node whose in-edge probabilities sum beyond 1 (by more than
    * 1e-9), which the LT model cannot draw from, or -1.
    */
  val ltExcessNode: Int = CompactGraph.firstLtExcess(this)

  private[graph] def inProbSum(v: Int): Double = {
    var sum = 0.0
    var i = inOff(v)
    while (i < inOff(v + 1)) { sum += probs(inEdge(i)); i += 1 }
    sum
  }

  /** Rejects a graph the LT model cannot run on, naming the first node whose
    * in-edge probabilities sum beyond 1.
    */
  def requireLT(): Unit = require(ltExcessNode < 0,
    s"LT needs every node's in-edge probabilities to sum to at most 1; " +
    s"node $ltExcessNode's sum to ${inProbSum(ltExcessNode)}")

}

object CompactGraph {

  /** Build from explicit weighted edges. Node ids must lie in [0, n). Edges
    * are numbered by a stable sort on (src, dst), whatever order they come in.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int, Double)]): CompactGraph = {
    edges.foreach { case (s, d, _) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of range [0,$n)")
    }
    val sorted = edges.sortBy { case (s, d, _) => s.toLong * n + d }
    build(n, sorted.map(_._1).toArray, sorted.map(_._2).toArray, sorted.map(_._3).toArray)
  }

  /** Build with weighted-cascade probabilities `p(u,v) = 1/indeg(v)` (§6.1). */
  def weightedCascade(n: Int, rawEdges: Seq[(Int, Int)]): CompactGraph = {
    val indeg = new Array[Int](n)
    rawEdges.foreach { case (_, d) => indeg(d) += 1 }
    fromEdges(n, rawEdges.map { case (s, d) => (s, d, 1.0 / indeg(d)) })
  }

  /** Weighted-cascade graph over the arcs `keys(0 until m)`, each encoded as
    * src·n + dst. The keys must ascend strictly: they are numbered in the
    * order given, and (src, dst) order is the edge numbering.
    */
  def weightedCascade(n: Int, keys: Array[Long], m: Int): CompactGraph = {
    val srcs = new Array[Int](m)
    val dsts = new Array[Int](m)
    val indeg = new Array[Int](n)
    var e = 0
    while (e < m) {
      require(e == 0 || keys(e - 1) < keys(e),
        s"arc keys must ascend strictly: keys($e) = ${keys(e)} follows ${keys(e - 1)}")
      srcs(e) = (keys(e) / n).toInt
      dsts(e) = (keys(e) % n).toInt
      indeg(dsts(e)) += 1
      e += 1
    }
    build(n, srcs, dsts, Array.tabulate(m)(e => 1.0 / indeg(dsts(e))))
  }

  // The per-edge and per-node scans behind the derived arrays live here,
  // not in the constructor body: HotSpot ran the same loops there several
  // times slower, which showed in the graph set-up time.

  private def requireProbs(g: CompactGraph): Unit = {
    var e = 0
    while (e < g.m) {
      val p = g.probs(e)
      require(p >= 0 && p <= 1,
        s"edge $e (${g.srcs(e)} -> ${g.dsts(e)}) has probability $p outside [0, 1]")
      e += 1
    }
  }

  private def inSources(g: CompactGraph): Array[Int] = {
    val out = new Array[Int](g.m)
    var i = 0
    while (i < g.m) { out(i) = g.srcs(g.inEdge(i)); i += 1 }
    out
  }

  private def sharedProbs(g: CompactGraph): Array[Double] = {
    val out = new Array[Double](g.n)
    var v = 0
    while (v < g.n) {
      val (from, until) = (g.inOff(v), g.inOff(v + 1))
      val p = if (from < until) g.probs(g.inEdge(from)) else Double.NaN
      var shared = p > 0 && p < 1
      var i = from
      while (shared && i < until) { shared = g.probs(g.inEdge(i)) == p; i += 1 }
      val none = if (shared) math.pow(1 - p, until - from) else 0.0
      out(v) = if (none >= java.lang.Double.MIN_NORMAL) p else Double.NaN
      v += 1
    }
    out
  }

  /** Fills `icCdfOff` and returns the tables it points into. A node reuses
    * the table last built for its in-degree when it has that table's p, so
    * under weighted cascade there is one table per distinct in-degree. Each
    * entry is computed by the same floating-point operations, in the same
    * order, as the inversion loop that walked the CDF per draw, so every
    * comparison with x is unchanged.
    */
  private def binomialTables(g: CompactGraph): Array[Double] = {
    var maxDeg = 0
    var v = 0
    while (v < g.n) { maxDeg = math.max(maxDeg, g.inDeg(v)); v += 1 }
    val lastOff = new Array[Int](maxDeg + 1) // 1 + offset; 0 = none yet
    val lastP = new Array[Double](maxDeg + 1)
    var table = new Array[Double](64)
    var size = 0
    v = 0
    while (v < g.n) {
      val (p, d) = (g.sharedP(v), g.inDeg(v))
      if (p != p) g.icCdfOff(v) = -1
      else if (lastOff(d) > 0 && lastP(d) == p) g.icCdfOff(v) = lastOff(d) - 1
      else {
        if (size + d > table.length) table = java.util.Arrays.copyOf(table, 2 * (size + d))
        val odds = p / (1 - p)
        var pmf = math.pow(1 - p, d)
        var cdf = pmf
        var live = 0
        while (live < d) {
          table(size + live) = cdf
          pmf *= odds * (d - live) / (live + 1)
          live += 1
          cdf += pmf
        }
        g.icCdfOff(v) = size
        lastOff(d) = size + 1
        lastP(d) = p
        size += d
      }
      v += 1
    }
    java.util.Arrays.copyOf(table, size)
  }

  private def firstLtExcess(g: CompactGraph): Int = {
    var v = 0
    while (v < g.n && g.inProbSum(v) <= 1 + 1e-9) v += 1
    if (v < g.n) v else -1
  }

  /** CSR over edges already in (src, dst) order. */
  private def build(n: Int, srcs: Array[Int], dsts: Array[Int], probs: Array[Double]): CompactGraph = {
    val inOff = offsets(n, dsts)
    new CompactGraph(n, srcs, dsts, probs, offsets(n, srcs), inOff, inEdges(n, dsts, inOff))
  }

  private def offsets(n: Int, keys: Array[Int]): Array[Int] = {
    val off = new Array[Int](n + 1)
    keys.foreach(k => off(k + 1) += 1)
    var i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    off
  }

  private def inEdges(n: Int, dsts: Array[Int], off: Array[Int]): Array[Int] = {
    val out = new Array[Int](dsts.length)
    val cursor = java.util.Arrays.copyOf(off, n)
    // Edge ids ascend within each group because we scan edges in id order.
    var e = 0
    while (e < dsts.length) {
      val d = dsts(e)
      out(cursor(d)) = e
      cursor(d) += 1
      e += 1
    }
    out
  }
}
