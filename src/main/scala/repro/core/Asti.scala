package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.CompactGraph
import repro.util.Rng

/** Per-round seed selection policy plugged into the ASTI loop. */
trait Selector {
  def name: String

  /** Whether the sampler should draw vanilla single-root RR-sets (AdaptIM)
    * instead of truncated-estimator multi-roots (TRIM/TRIM-B).
    */
  def vanillaRoots: Boolean = false

  def select(ctx: MRRSamplerCtx, eps: Double): SelectResult
}

/** ASTI instantiated by TRIM, which is TRIM-B with batch size 1. */
case object TrimSelector extends Selector {
  val name = "ASTI"
  def select(ctx: MRRSamplerCtx, eps: Double): SelectResult = TrimB.select(ctx, eps, 1)
}

/** ASTI instantiated by TRIM-B with batch size b (paper's ASTI-b). */
final case class TrimBSelector(b: Int) extends Selector {
  require(b >= 1, s"batch size b=$b must be at least 1")
  val name = s"ASTI-$b"
  def select(ctx: MRRSamplerCtx, eps: Double): SelectResult = TrimB.select(ctx, eps, b)
}

/** AdaptIM baseline: same adaptive loop, but each round maximizes the vanilla
  * expected marginal spread with single-root RR-sets (Han et al. VLDB'18,
  * modified for seed minimization as in §6.1). No truncation — which is
  * exactly why its per-round sample count scales with n_i/OPT′_i instead of
  * η_i/OPT_i. The loop is TRIM's, with n_i as the estimation target.
  */
case object AdaptImSelector extends Selector {
  val name = "ADAPTIM"
  override val vanillaRoots = true
  def select(ctx: MRRSamplerCtx, eps: Double): SelectResult = TrimB.select(ctx, eps, 1)
}

/** Result of one adaptive run on one realization. `samples` and `work` sum
  * the rounds' `SelectResult`s; `work` counts the random draws of the reverse
  * BFS, not edges examined.
  */
final case class AstiResult(
    seeds: Vector[Int],
    rounds: Int,
    finalSpread: Int,
    samples: Long,
    work: Long,
    wallMillis: Long
) {
  def numSeeds: Int = seeds.size
}

/** ASTI — Adaptive Seed minimization via Truncated Influence maximization
  * (Algorithm 1): repeatedly (i) select the node/batch maximizing the
  * expected marginal *truncated* spread on the residual graph, (ii) observe
  * its actual propagation under the (progressively revealed) realization φ,
  * (iii) prune the activated nodes, until at least η nodes are active.
  */
object Asti {

  def run(g: CompactGraph, eta: Int, eps: Double, selector: Selector, model: DiffusionModel,
          realizationSeed: Long, algoSeed: Long = 7): AstiResult = {
    require(eps > 0 && eps < 1, s"ε=$eps must lie in (0, 1)")
    val state = new ResidualState(g, eta)
    // Rejects an LT graph whose in-probabilities sum beyond 1 at some node.
    val real = new Realization(g, model, realizationSeed)
    val t0 = System.nanoTime()
    var seeds = Vector.empty[Int]
    var rounds = 0
    var samples = 0L
    var work = 0L
    while (!state.reached) {
      rounds += 1
      val sel = selector.select(
        new MRRSamplerCtx(state, model, selector.vanillaRoots, Rng.state(algoSeed, rounds)), eps)
      require(sel.seeds.nonEmpty, s"selector ${selector.name} returned no seeds")
      // Observe: the batch activates its forward-reachable set among the
      // still-inactive nodes under φ (Lines 4–6 of Algorithm 1).
      val activated = real.forwardReachable(sel.seeds, state.inactive)
      seeds ++= sel.seeds
      // A round that activates nothing leaves the residual state, and so
      // every later round, unchanged: fail instead of looping.
      require(state.activate(activated) > 0,
        s"round $rounds: selector ${selector.name} activated no node " +
        s"(seeds ${sel.seeds.mkString(", ")} were active already)")
      samples += sel.samples
      work += sel.work
    }
    AstiResult(seeds, rounds, state.nActive, samples, work,
               (System.nanoTime() - t0) / 1000000L)
  }

  /** The pre-broadcast form, which perfbench's harness calls; it goes at the
    * next benchmark change.
    */
  def run(spark: SparkSession, bg: Broadcast[CompactGraph], eta: Int, eps: Double,
          selector: Selector, model: DiffusionModel, realizationSeed: Long,
          algoSeed: Long): AstiResult =
    run(bg.value, eta, eps, selector, model, realizationSeed, algoSeed)
}
