package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core.{Coverage, MRRSamplerCtx, ResidualState, SelectResult, Trim}
import repro.diffusion.DiffusionModel
import repro.graph.CompactGraph

/** ATEUC — the state-of-the-art *non-adaptive* seed minimization baseline
  * (Han et al. 2017, arXiv:1711.10665), reimplemented from the mechanism the
  * ASTI paper describes (§5, §6.2): select a node set S with E[I(S)] ≥ η in
  * one shot using vanilla RR-set sampling, maintaining an upper candidate S_u
  * and a lower candidate S_l and stopping once |S_u| ≤ 2|S_l|.
  *
  * Concretely, per doubling iteration over the RR pool R (|R| = θ):
  *  - pull greedy maximum coverage picks, obtaining prefix coverages
  *    c_1 ≤ c_2 ≤ …, until S_u below is found;
  *  - S_l = shortest prefix whose *upper*-confidence spread n·Λᵘ(c)/θ ≥ η
  *    (optimistic — |S_l| lower-bounds the optimum w.h.p.);
  *  - S_u = shortest prefix whose *lower*-confidence spread n·Λˡ(c)/θ ≥ η
  *    (certifies E[I(S_u)] ≥ η w.h.p. — the certification slack is what makes
  *    ATEUC select more seeds than ASTI, as in the paper's Table 3, while
  *    per-realization spreads still straddle the mean and miss η on a
  *    fraction of realizations, as in the paper's Figure 8);
  *  - return S_u when |S_u| ≤ 2|S_l|, else double θ.
  *
  * This preserves the two behaviours the evaluation leans on: being
  * non-adaptive it can under-/over-shoot η on individual realizations
  * (Table 3's N/A cells, Figure 8), and its stop condition is met *sooner*
  * for larger η, so runtime decreases as η grows.
  *
  * It returns a `SelectResult`, as the adaptive selectors do: `estTruncated`
  * holds the plain estimate n·Λ_R(S)/|R|, and `iterations` reads
  * `MaxIterations` + 1 when the doubling budget ran out.
  */
object Ateuc {

  val InitialTheta = 256
  val MaxIterations = 14

  /** ATEUC on the full graph: an all-inactive residual state, sampled once. */
  def select(g: CompactGraph, eta: Int, model: DiffusionModel, seed: Long): SelectResult =
    select(new MRRSamplerCtx(new ResidualState(g, eta), model, vanillaRoots = true, seedBase = seed))

  /** The pre-broadcast form, which perfbench's harness calls; it goes at the
    * next benchmark change.
    */
  def select(spark: SparkSession, bg: Broadcast[CompactGraph], eta: Int,
             model: DiffusionModel, seed: Long): SelectResult = select(bg.value, eta, model, seed)

  /** ATEUC over the pool of `ctx`, a full-graph context of vanilla RR-sets
    * whose target η is `ctx.etaI`.
    */
  def select(ctx: MRRSamplerCtx): SelectResult = {
    val n = ctx.graph.n
    val eta = ctx.etaI
    // Confidence level across all prefixes and iterations (union bound).
    val a = math.log(n.toDouble) + math.log(MaxIterations / 0.01)

    var theta = InitialTheta.toLong
    var iter = 1
    // The shortest prefix with n·c/θ ≥ η at the latest doubling, and c.
    var plain: Array[Int] = null
    var plainCovered = 0
    while (iter <= MaxIterations) {
      ctx.growTo(theta)
      // Greedy is pulled only until S_u is certified: Λˡ(c) ≤ c ≤ Λᵘ(c), so
      // S_l and `plain` are found at or before S_u's pick. Without S_u,
      // greedy runs until it covers all θ sets, where n·c/θ = n ≥ η, so
      // `plain` is found at every doubling.
      val greedy = Coverage.greedy(ctx.counts, ctx.sets)
      val picks = scala.collection.mutable.ArrayBuffer.empty[Int]
      var sL = -1
      var sU: Array[Int] = null
      var sUCovered = 0
      plain = null
      while (sU == null && greedy.hasNext) {
        val (u, _, c) = greedy.next()
        picks += u
        if (sL < 0 && n * Trim.lamUpper(c, a) / theta >= eta) sL = picks.length
        if (plain == null && n.toDouble * c / theta >= eta) { plain = picks.toArray; plainCovered = c }
        if (n * Trim.lamLower(c, a) / theta >= eta) { sU = picks.toArray; sUCovered = c }
      }
      // Greedy's c is the number of sets the prefix covers, so the estimated
      // spread n·Λ_R(S)/|R| needs no second pass over the pool.
      if (sU != null && sL > 0 && sU.length <= 2 * sL)
        return SelectResult(sU, n.toDouble * sUCovered / ctx.totalSamples,
                            ctx.totalSamples, ctx.totalWork, iter)
      theta *= 2
      iter += 1
    }
    // Budget exhausted: return the last estimate-feasible prefix (still a
    // sensible non-adaptive answer; flagged by iterations == MaxIterations+1).
    SelectResult(plain, n.toDouble * plainCovered / ctx.totalSamples,
                 ctx.totalSamples, ctx.totalWork, MaxIterations + 1)
  }
}
