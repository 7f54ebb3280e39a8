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

  /** Select a batch of (up to) `b` seeds from the residual graph behind
    * `ctx`: the doubling loop of TRIM (b = 1), TRIM-B and AdaptIM. The
    * estimation target is η_i over mRR-sets, or n_i over the vanilla
    * single-root RR-sets of AdaptIM (`ctx.vanillaRoots`).
    */
  def select(ctx: MRRSamplerCtx, eps: Double, b: Int): SelectResult = {
    val nI = ctx.nI
    val bEff = math.min(b, nI)
    val rhoB = rho(bEff)
    val target = if (ctx.vanillaRoots) nI else ctx.etaI
    val sch = Trim.schedule(nI, target, eps, lnChoose(nI, bEff), rhoB, bEff)
    // At b = 1 greedy is the argmax of the counts, so no set is kept.
    def grow(size: Long): Unit = if (bEff == 1) ctx.countTo(size) else ctx.growTo(size)
    grow(math.ceil(sch.thetaO).toLong)

    var t = 1
    while (true) {
      // The pool's counts span the dense node-id space; active nodes never
      // appear in a residual mRR-set, so their coverage stays 0.
      val (batch, covered) =
        if (bEff == 1) { val (v, c) = Coverage.topNode(ctx.counts); (Array(v), c) }
        else Coverage.greedyCover(ctx.counts, ctx.sets, bEff)
      val lamL = Trim.lamLower(covered, sch.a1)
      val lamU = Trim.lamUpper(covered / rhoB, sch.a2)
      if ((lamU > 0 && lamL / lamU >= rhoB * (1.0 - sch.epsHat)) || t == sch.T) {
        val est = target.toDouble * covered / ctx.totalSamples
        return SelectResult(batch, est, ctx.totalSamples, ctx.totalWork, t)
      }
      t += 1
      grow(math.min(ctx.totalSamples * 2, math.ceil(sch.thetaMax).toLong))
    }
    throw new IllegalStateException("unreachable")
  }
}
