package repro.core

import repro.graph.CompactGraph

/** Residual states at a chosen η_i, and single draws through a context, for
  * tests and benches that sample at a target their activations did not leave
  * or that look at one set at a time.
  */
object SamplerFixtures {

  /** `g` with the nodes `active` activated and η_i = `etaI`. */
  def residual(g: CompactGraph, etaI: Int, active: Array[Int] = Array.empty): ResidualState = {
    val state = new ResidualState(g, active.distinct.length + etaI)
    state.activate(active)
    state
  }

  /** `state`'s activated nodes at η_i = `etaI`. */
  def withEtaI(state: ResidualState, etaI: Int): ResidualState =
    residual(state.graph, etaI, (0 until state.graph.n).filterNot(state.inactive(_)).toArray)

  /** Set `idx` of `ctx`, and the random draws its reverse BFS made. */
  def sampleOne(ctx: MRRSamplerCtx, idx: Long): (Array[Int], Long) = {
    val before = ctx.totalWork
    val set = ctx.generateLocal(idx, 1).head
    (set, ctx.totalWork - before)
  }
}
