package repro.core

import repro.graph.CompactGraph

/** Mutable adaptive-process state: which nodes are already activated, and the
  * derived residual-graph quantities of §2.3 — `n_i` (inactive nodes) and
  * `η_i` (remaining shortfall).
  *
  * The residual graph G_i is never materialized: samplers and forward
  * propagation take the `inactive` mask and skip non-residual nodes/edges.
  */
final class ResidualState(val graph: CompactGraph, val eta: Int) {
  require(eta >= 1 && eta <= graph.n, s"η=$eta out of [1, n=${graph.n}]")

  /** inactive(v) == true while v has not been activated (v ∈ V_i). */
  val inactive: Array[Boolean] = Array.fill(graph.n)(true)
  private var activatedCount = 0

  /** Number of activated nodes, i.e. Γ(S) before truncation at η. */
  def nActive: Int = activatedCount

  /** n_i: residual node count. */
  def nI: Int = graph.n - activatedCount

  /** η_i = η − (n − n_i): remaining shortfall (only meaningful pre-target). */
  def etaI: Int = eta - activatedCount

  /** Has the adaptive process reached the threshold? */
  def reached: Boolean = activatedCount >= eta

  /** Residual node ids, ascending. */
  def inactiveNodes: Array[Int] = {
    val out = new Array[Int](nI)
    var v = 0
    var i = 0
    while (v < graph.n) {
      if (inactive(v)) { out(i) = v; i += 1 }
      v += 1
    }
    out
  }

  /** Mark `nodes` active (the observe step); returns newly activated count. */
  def activate(nodes: Array[Int]): Int = {
    var added = 0
    nodes.foreach { v =>
      if (inactive(v)) { inactive(v) = false; added += 1 }
    }
    activatedCount += added
    added
  }
}
