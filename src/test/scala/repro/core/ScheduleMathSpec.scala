package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pure math of the TRIM/TRIM-B sampling schedules and martingale bounds
  * (Algorithm 2 lines 1–5, Algorithm 3 lines 1–5, Lemma A.2).
  */
class ScheduleMathSpec extends AnyFunSuite {

  test("lamLower is monotone in coverage beyond the confidence scale") {
    // The squared form dips for c below ~a/2 − 2a/9; TRIM only consults it
    // where coverage dominates the confidence term.
    val vals = Seq(8.0, 20.0, 100.0, 1000.0).map(Trim.lamLower(_, 8.0))
    assert(vals.sliding(2).forall(p => p(0) <= p(1)), vals.toString)
  }

  test("lamUpper is monotone in coverage") {
    val vals = Seq(0.0, 5.0, 20.0, 100.0, 1000.0).map(Trim.lamUpper(_, 8.0))
    assert(vals.sliding(2).forall(p => p(0) < p(1)))
  }

  test("larger confidence a widens the bounds") {
    assert(Trim.lamLower(100, 20) < Trim.lamLower(100, 5))
    assert(Trim.lamUpper(100, 20) > Trim.lamUpper(100, 5))
  }

  test("lamLower at zero coverage is non-positive") {
    assert(Trim.lamLower(0, 5.0) <= 0.0)
  }

  test("lamUpper at zero coverage stays positive (prior mass)") {
    assert(Trim.lamUpper(0, 5.0) > 0.0)
  }

  test("schedule δ shrinks with the target (union bound over η_i outcomes)") {
    val loose = Trim.schedule(1000, 10, 0.5, math.log(1000.0))
    val tight = Trim.schedule(1000, 500, 0.5, math.log(1000.0))
    assert(tight.delta < loose.delta)
  }

  test("schedule ε̂ matches the paper's 99ε/(100−ε)") {
    val sch = Trim.schedule(100, 10, 0.5, math.log(100.0))
    assert(math.abs(sch.epsHat - 99.0 * 0.5 / 99.5) < 1e-12)
  }

  test("batched schedule: larger b reduces θ_max (Line 2 of Algorithm 3)") {
    val b1 = Trim.schedule(1000, 100, 0.5, TrimB.lnChoose(1000, 1), TrimB.rho(1), 1)
    val b8 = Trim.schedule(1000, 100, 0.5, TrimB.lnChoose(1000, 8), TrimB.rho(8), 8)
    assert(b8.thetaMax < b1.thetaMax)
  }

  test("batched schedule: a1 uses ln C(n, b) candidates") {
    val sch = Trim.schedule(50, 10, 0.5, TrimB.lnChoose(50, 3), TrimB.rho(3), 3)
    val single = Trim.schedule(50, 10, 0.5, math.log(50.0))
    assert(sch.a1 > single.a1) // ln C(50,3) > ln 50
  }

  test("doubling from θ_o reaches θ_max within T iterations for varied inputs") {
    for (n <- Seq(100, 5000, 50000); target <- Seq(1, 10, n / 10); eps <- Seq(0.1, 0.5)) {
      val sch = Trim.schedule(n, math.max(1, target), eps, math.log(n.toDouble))
      assert(sch.thetaO * math.pow(2, sch.T - 1) >= sch.thetaMax * 0.999,
             s"n=$n target=$target eps=$eps")
      assert(sch.T <= 64, s"T=${sch.T} unreasonable")
    }
  }

  test("no coverage below c_min passes the stop test, and the stop ratio rises with coverage") {
    for (n <- Seq(100, 5000, 50000); target <- Seq(1, 10, n / 10, n); eps <- Seq(0.1, 0.5, 0.9);
         b <- Seq(1, 2, 4, 8)) {
      val rhoB = TrimB.rho(b)
      val sch = Trim.schedule(n, target, eps, TrimB.lnChoose(n, b), rhoB, b)
      val cMin = TrimB.minStopCoverage(sch, rhoB)
      val cell = s"n=$n target=$target eps=$eps b=$b c_min=$cMin"
      assert(cMin > 0 && cMin < sch.thetaMax, cell)
      assert((0 until cMin).forall(c => !TrimB.stops(c, sch, rhoB)), cell)
      assert((cMin to 2 * cMin).forall(c => TrimB.stops(c, sch, rhoB)), cell)
      // Λˡ dips below 0 (from 0 at c = 0, up to rounding) before it grows:
      // the ratio is never positive up to its minimum, and strictly rising
      // after it.
      val ratios = (0 to 2 * cMin).map(TrimB.stopRatio(_, sch, rhoB))
      val dip = ratios.indexOf(ratios.min)
      assert(ratios.take(dip + 1).forall(_ <= 1e-12), cell)
      assert(ratios.drop(dip).sliding(2).forall(p => p(0) < p(1)), cell)
    }
  }

  test("rho is within (1 − 1/e, 1] for all b ≥ 1") {
    (1 to 64).foreach { b =>
      val r = TrimB.rho(b)
      assert(r > 1.0 - 1.0 / math.E && r <= 1.0, s"b=$b r=$r")
    }
  }

  test("lnChoose symmetry C(n,b) = C(n,n−b)") {
    for (n <- Seq(5, 9, 14); b <- 0 to n)
      assert(math.abs(TrimB.lnChoose(n, b) - TrimB.lnChoose(n, n - b)) < 1e-9)
  }
}
