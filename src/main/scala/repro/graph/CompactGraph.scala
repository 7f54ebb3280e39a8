package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A probabilistic directed social network in CSR form, broadcastable to tasks.
  *
  * Edges are numbered `0 until m` in ascending (src, dst) order;
  * `srcs(e) -> dsts(e)` carries propagation probability `probs(e)`. The edges
  * leaving v are therefore the id range `outOff(v) until outOff(v + 1)`
  * (forward propagation), and an in-adjacency lists the edge ids entering
  * each node (reverse reachable sampling). For the LT model the in-adjacency
  * order of a node defines its live-edge choice order, so it is kept
  * deterministic (sorted by edge id).
  *
  * Node ids are dense `0 until n`. Graphs in this reproduction are at most a
  * few hundred thousand edges, so the CSR lives on the driver and is shipped
  * to executors via `SparkContext.broadcast`.
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

  def inDeg(v: Int): Int = inOff(v + 1) - inOff(v)

  /** Per node v: the probability p that all d = indeg(v) of its in-edges
    * share, where the reverse sampler draws v's live in-edges in constant
    * expected work; NaN where it takes the per-edge path. A node qualifies
    * when p ∈ (0, 1) and (1 − p)^d is a normal double, so IC's binomial
    * inversion never starts from an underflowed 0. Under weighted cascade
    * every node with d ≥ 2 qualifies, since (1 − 1/d)^d ≥ 1/4.
    */
  val sharedP: Array[Double] = new Array[Double](n)

  /** (1 − p)^d at the nodes of `sharedP` (NaN elsewhere): the IC chance that
    * none of v's in-edges is live.
    */
  val noneLiveIC: Array[Double] = new Array[Double](n)
  CompactGraph.fillSharedProbs(this)

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

  /** Iterate edge ids leaving `v`. */
  @inline def foreachOutEdge(v: Int)(f: Int => Unit): Unit = {
    var e = outOff(v)
    while (e < outOff(v + 1)) { f(e); e += 1 }
  }

  /** Iterate edge ids entering `v`. */
  @inline def foreachInEdge(v: Int)(f: Int => Unit): Unit = {
    var i = inOff(v)
    while (i < inOff(v + 1)) { f(inEdge(i)); i += 1 }
  }

  /** In-edge ids of `v` in deterministic (edge-id) order — LT choice order. */
  def inEdgesOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(inEdge, inOff(v), inOff(v + 1))

  /** Edge list as a DataFrame (src, dst, p) for SQL-side checks and stats. */
  def edgesDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until m).map(e => (srcs(e), dsts(e), probs(e))).toDF("src", "dst", "p")
  }
}

object CompactGraph {

  /** Build from explicit weighted edges. Node ids must lie in [0, n). Edges
    * are numbered by a stable sort on (src, dst), whatever order they come in.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int, Double)]): CompactGraph = {
    edges.foreach { case (s, d, p) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of range [0,$n)")
      require(p >= 0.0 && p <= 1.0, s"probability $p out of [0,1]")
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

  // The per-node scans behind `sharedP`, `noneLiveIC` and `ltExcessNode`
  // live here, not in the constructor body: HotSpot ran the same loop there
  // several times slower, which showed in the graph set-up time.

  private def fillSharedProbs(g: CompactGraph): Unit = {
    var v = 0
    while (v < g.n) {
      val (from, until) = (g.inOff(v), g.inOff(v + 1))
      val p = if (from < until) g.probs(g.inEdge(from)) else Double.NaN
      var shared = p > 0 && p < 1
      var i = from
      while (shared && i < until) { shared = g.probs(g.inEdge(i)) == p; i += 1 }
      val none = if (shared) math.pow(1 - p, until - from) else 0.0
      if (none >= java.lang.Double.MIN_NORMAL) {
        g.sharedP(v) = p
        g.noneLiveIC(v) = none
      } else {
        g.sharedP(v) = Double.NaN
        g.noneLiveIC(v) = Double.NaN
      }
      v += 1
    }
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
