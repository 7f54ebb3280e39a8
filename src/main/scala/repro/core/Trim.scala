package repro.core

/** Outcome of one selection: a round of TRIM, TRIM-B or AdaptIM, or ATEUC's
  * one shot. `estTruncated` is the estimated expected spread of the returned
  * seeds: truncated at η_i for TRIM and TRIM-B, plain for AdaptIM and ATEUC.
  * `samples` and `work` instrument the efficiency claims (Lemmas 3.8–3.10).
  * `work` is the number of random draws the reverse BFS of the round's sets
  * made (`MRRSamplerCtx.totalWork`), not the number of edges it examined.
  */
final case class SelectResult(
    seeds: Array[Int],
    estTruncated: Double,
    samples: Long,
    work: Long,
    iterations: Int
)

/** TRIM — TRuncated Influence Maximization (Algorithm 2): its bound math.
  *
  * OPIM-C-style single-group design: start from θ_o mRR-sets, pick the node
  * v* with maximum coverage, bound its expected coverage from below (Λˡ, via
  * the martingale bound of Lemma A.2) and the optimum's from above (Λᵘ), and
  * stop when Λˡ(v*)/Λᵘ(v°) ≥ 1−ε̂, doubling the sample pool otherwise. At
  * most T iterations; the T-th returns unconditionally (the θ_max budget of
  * Line 2 then guarantees the bound by [40]). The loop itself is
  * `TrimB.select` with b = 1, where ρ₁ = 1 and ln C(n_i, 1) = ln n_i.
  */
object Trim {

  /** Lemma A.2 lower bound on E[Λ] given observed coverage and confidence a. */
  def lamLower(cov: Double, a: Double): Double = {
    val s = math.sqrt(cov + 2.0 * a / 9.0) - math.sqrt(a / 2.0)
    s * s - a / 18.0
  }

  /** Lemma A.2 upper bound on E[Λ] given observed coverage and confidence a. */
  def lamUpper(cov: Double, a: Double): Double = {
    val s = math.sqrt(cov + a / 2.0) + math.sqrt(a / 2.0)
    s * s
  }

  private val OneMinusInvE = 1.0 - 1.0 / math.E

  /** Parameters of Lines 1–5 shared by TRIM, TRIM-B and the AdaptIM skeleton.
    * `target` is η_i for truncated estimation, n_i for vanilla RR estimation.
    */
  final case class Schedule(delta: Double, epsHat: Double, thetaMax: Double,
                            thetaO: Double, T: Int, a1: Double, a2: Double)

  def schedule(nI: Int, target: Int, eps: Double, lnCandidates: Double,
               rhoB: Double = 1.0, b: Int = 1): Schedule = {
    val delta = eps / (100.0 * OneMinusInvE * (1.0 - eps) * target)
    val epsHat = 99.0 * eps / (100.0 - eps)
    val ln6d = math.log(6.0 / delta)
    val sq = math.sqrt(ln6d) + math.sqrt((lnCandidates + ln6d) / rhoB)
    val thetaMax = 2.0 * nI * sq * sq / (b * epsHat * epsHat)
    val thetaO = math.max(1.0, thetaMax * b * epsHat * epsHat / nI)
    val T = math.ceil(math.log(thetaMax / thetaO) / math.log(2.0)).toInt + 1
    val lnT = math.log(3.0 * T / delta)
    Schedule(delta, epsHat, thetaMax, thetaO, T, lnT + lnCandidates, lnT)
  }
}
