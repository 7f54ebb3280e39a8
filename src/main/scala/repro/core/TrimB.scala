package repro.core

/** TRIM-B — batched TRIM (Algorithm 3).
  *
  * Generalizes TRIM to pick a size-b batch per round via greedy maximum
  * coverage over the mRR-sets (guarantee ρ_b = 1 − (1 − 1/b)^b). Differences
  * from Algorithm 2, mirrored here: θ_max/θ_o involve ρ_b and b (Lines 2–3),
  * a₁ uses ln C(n_i, b) candidates, the optimum's coverage upper bound
  * divides the greedy coverage by ρ_b (Line 10), and the stop ratio is
  * ρ_b(1 − ε̂) (Line 11). With b = 1 this is exactly TRIM (Algorithm 2).
  */
object TrimB {

  /** ρ_b = 1 − (1 − 1/b)^b. */
  def rho(b: Int): Double = 1.0 - math.pow(1.0 - 1.0 / b, b)

  /** ln C(n, b) without overflow: Σ_{i=1..b} ln((n−b+i)/i). */
  def lnChoose(n: Int, b: Int): Double = {
    require(b >= 0 && b <= n, s"C($n, $b) undefined")
    var s = 0.0
    var i = 1
    while (i <= b) { s += math.log((n - b + i).toDouble / i); i += 1 }
    s
  }

  /** Λˡ(c, a₁)/Λᵘ(c/ρ_b, a₂), the ratio Line 11 compares with ρ_b(1 − ε̂),
    * for a batch covering c sets.
    */
  def stopRatio(covered: Int, sch: Trim.Schedule, rhoB: Double): Double =
    Trim.lamLower(covered, sch.a1) / Trim.lamUpper(covered / rhoB, sch.a2)

  /** Line 11's stop test for a batch covering `covered` sets. Λᵘ(c, a₂) ≥ 2a₂
    * and a₂ = ln(3T/δ) > 0, so the ratio is always defined.
    */
  def stops(covered: Int, sch: Trim.Schedule, rhoB: Double): Boolean =
    stopRatio(covered, sch, rhoB) >= rhoB * (1.0 - sch.epsHat)

  /** c_min: the least coverage that passes `stops`, or `Int.MaxValue` if
    * none does. The passing coverages are exactly [c_min, ∞): the ratio is
    * at most 0 while Λˡ ≤ 0 (the threshold is positive), and strictly
    * increasing where Λˡ > 0. There, with s = √(c + 2a₁/9), α = √(a₁/2),
    * w = √(c/ρ + a₂/2) and β = √(a₂/2), Λˡ = (s − 4α/3)(s − 2α/3) with
    * s > 4α/3, and d ln Λˡ/dc = (s − α)/(s·Λˡ) > 1/(s(s − 2α/3)) > 1/c, while
    * d ln Λᵘ/dc = 1/(ρw(w + β)) < 1/c.
    */
  def minStopCoverage(sch: Trim.Schedule, rhoB: Double): Int = {
    def passes(c: Long): Boolean = stops(c.toInt, sch, rhoB)
    var hi = 1L
    while (hi < Int.MaxValue && !passes(hi)) hi = math.min(hi * 2, Int.MaxValue.toLong)
    if (!passes(hi)) return Int.MaxValue
    var lo = -1L // fails (or lies below 0); hi passes
    while (hi - lo > 1) {
      val mid = (lo + hi) >>> 1
      if (passes(mid)) hi = mid else lo = mid
    }
    hi.toInt
  }

  /** Select a batch of (up to) `b` seeds from the residual graph behind
    * `ctx`: the doubling loop of TRIM (b = 1), TRIM-B and AdaptIM. The
    * estimation target is η_i over mRR-sets, or n_i over the vanilla
    * single-root RR-sets of AdaptIM (`ctx.vanillaRoots`).
    *
    * Iteration t checks a pool of θ_t sets, θ_1 = ⌈θ_o⌉ and
    * θ_{t+1} = min(2θ_t, ⌈θ_max⌉). A batch covers at most θ_t sets, so a
    * check with θ_t < c_min (`minStopCoverage`) cannot stop the loop: the
    * pool grows straight to the first θ_t ≥ c_min, or to θ_T, without
    * drawing or checking the pools in between. The T-th check always runs,
    * and the result (seeds, estimate, samples, work, iterations) is the one
    * checking every iteration gives.
    */
  def select(ctx: MRRSamplerCtx, eps: Double, b: Int): SelectResult = {
    val nI = ctx.nI
    val bEff = math.min(b, nI)
    val rhoB = rho(bEff)
    val target = if (ctx.vanillaRoots) nI else ctx.etaI
    val sch = Trim.schedule(nI, target, eps, lnChoose(nI, bEff), rhoB, bEff)
    val cMin = minStopCoverage(sch, rhoB)
    val thetaMax = math.ceil(sch.thetaMax).toLong
    // At b = 1 greedy is the argmax of the counts, so no set is kept.
    def grow(size: Long): Unit = if (bEff == 1) ctx.countTo(size) else ctx.growTo(size)

    var t = 1
    var size = math.ceil(sch.thetaO).toLong
    while (true) {
      // The pool iteration t would check: growing never shrinks it.
      def theta = math.max(size, ctx.totalSamples)
      while (theta < cMin && t < sch.T) {
        size = math.min(theta * 2, thetaMax)
        t += 1
      }
      grow(size)
      // The pool's counts span the dense node-id space; active nodes never
      // appear in a residual mRR-set, so their coverage stays 0.
      val (batch, covered) =
        if (bEff == 1) { val (v, c) = Coverage.topNode(ctx.counts); (Array(v), c) }
        else Coverage.greedyCover(ctx.counts, ctx.sets, bEff)
      if (stops(covered, sch, rhoB) || t == sch.T) {
        val est = target.toDouble * covered / ctx.totalSamples
        return SelectResult(batch, est, ctx.totalSamples, ctx.totalWork, t)
      }
      t += 1
      size = math.min(ctx.totalSamples * 2, thetaMax)
    }
    throw new IllegalStateException("unreachable")
  }
}
