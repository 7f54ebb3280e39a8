package repro.diffusion

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{CompactGraph, NodeQueue}
import repro.util.Rng

/** One live-edge realization φ of a probabilistic graph, represented lazily
  * as a pure function of a 64-bit trial seed (§2.1, live-edge procedure).
  *
  * Nothing is materialized: edge status (IC) / chosen in-edge (LT) is derived
  * by hashing `(seed, edge or node)`. The same `Realization` object therefore
  * yields consistent answers across all ASTI rounds — the progressive
  * revelation that adaptive policies require — and is trivially shippable to
  * executors. An LT realization rejects a graph where some node's in-edge
  * probabilities sum beyond 1 (`CompactGraph.requireLT`).
  */
final class Realization(val graph: CompactGraph, val model: DiffusionModel, val seed: Long)
    extends Serializable {

  if (model == DiffusionModel.LT) graph.requireLT()

  private val LtSalt = 0x517cc1b727220a95L
  private val key = Rng.key(seed)

  /** IC: is edge e live under φ? */
  def icLive(e: Int): Boolean = Rng.keyedUniform(key, e) < graph.probs(e)

  /** LT: the single chosen in-edge id of node v, or -1 for "none".
    * The draw walks v's in-edges in deterministic (edge-id) order.
    */
  def ltChosen(v: Int): Int = {
    val u = Rng.keyedUniform(key, LtSalt ^ v.toLong)
    var acc = 0.0
    var i = graph.inOff(v)
    while (i < graph.inOff(v + 1)) {
      val e = graph.inEdge(i)
      acc += graph.probs(e)
      if (u < acc) return e
      i += 1
    }
    -1
  }

  /** Is edge e (into node `graph.dsts(e)`) live under φ in this model? */
  def liveInto(e: Int): Boolean = model match {
    case DiffusionModel.IC => icLive(e)
    case DiffusionModel.LT => ltChosen(graph.dsts(e)) == e
  }

  /** Forward-reachable set from `seeds` through live edges, restricted to
    * nodes where `eligible` holds (pass null for no restriction). Seeds that
    * are not eligible are skipped. This is exactly the set of nodes a batch
    * activates in the residual graph (§2.3).
    */
  def forwardReachable(seeds: Array[Int], eligible: Array[Boolean]): Array[Int] = {
    val g = graph
    // One queue per call keeps the realization immutable and shareable.
    val q = new NodeQueue(g.n)
    q.begin()
    val lt = model == DiffusionModel.LT
    // LT: 2 + the chosen in-edge of each node (0 = not drawn yet), so a node
    // reached over several edges is drawn once.
    val chosen = if (lt) new Array[Int](g.n) else null
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (!q.contains(s) && (eligible == null || eligible(s))) q.add(s)
      i += 1
    }
    var head = 0
    while (head < q.size) {
      val u = q(head)
      head += 1
      var e = g.outOff(u)
      while (e < g.outOff(u + 1)) {
        val v = g.dsts(e)
        if (!q.contains(v) && (eligible == null || eligible(v))) {
          val live =
            if (lt) { if (chosen(v) == 0) chosen(v) = ltChosen(v) + 2; chosen(v) - 2 == e }
            else icLive(e)
          if (live) q.add(v)
        }
        e += 1
      }
    }
    q.result()
  }

  /** Spread I_φ(S) (optionally restricted to a residual node set). */
  def spread(seeds: Array[Int], eligible: Array[Boolean] = null): Int =
    forwardReachable(seeds, eligible).length

  /** Materialized live edges as a DataFrame (src, dst) — the input of the
    * DuckDB recursive-CTE reachability check of `forwardReachable`.
    */
  def liveEdgesDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until graph.m)
      .filter(liveInto)
      .map(e => (graph.srcs(e), graph.dsts(e)))
      .toDF("src", "dst")
  }
}
