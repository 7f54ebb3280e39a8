package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.diffusion.DiffusionModel
import repro.graph.{CompactGraph, GraphGen}

class TrimSpec extends AnyFunSuite {

  import DiffusionModel.{IC, LT}

  private def ctxFor(g: CompactGraph, eta: Int, model: DiffusionModel,
                     vanilla: Boolean = false, seed: Long = 1L,
                     preActivate: Array[Int] = Array.empty): (MRRSamplerCtx, ResidualState) = {
    val state = new ResidualState(g, eta)
    if (preActivate.nonEmpty) state.activate(preActivate)
    (new MRRSamplerCtx(state, model, vanilla, seed), state)
  }

  /** `TrimB.select` as it was before it skipped the checks below c_min:
    * grow from ⌈θ_o⌉ and check after every doubling.
    */
  private def checkEveryDoubling(ctx: MRRSamplerCtx, eps: Double, b: Int): SelectResult = {
    val nI = ctx.nI
    val bEff = math.min(b, nI)
    val rhoB = TrimB.rho(bEff)
    val target = if (ctx.vanillaRoots) nI else ctx.etaI
    val sch = Trim.schedule(nI, target, eps, TrimB.lnChoose(nI, bEff), rhoB, bEff)
    def grow(size: Long): Unit = if (bEff == 1) ctx.countTo(size) else ctx.growTo(size)
    grow(math.ceil(sch.thetaO).toLong)
    var t = 1
    while (true) {
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

  test("select returns what checking after every doubling returns (IC and LT, mRR and vanilla, b = 1 and 4)") {
    val nethept = GraphGen.dataset("nethept", scale = 0.05)
    val edgeless = CompactGraph.fromEdges(40, Seq.empty)
    var skipped = 0
    for ((g, eta, pre) <- Seq((nethept, nethept.n / 10, Array.empty[Int]),
                              (nethept, nethept.n / 10 + 5, (0 until nethept.n / 10).toArray),
                              (edgeless, 20, Array(0, 1))); model <- Seq(IC, LT);
         vanilla <- Seq(false, true); b <- Seq(1, 4); seed <- Seq(3L, 4L)) {
      val cell = s"n=${g.n} eta=$eta pre=${pre.length} $model vanilla=$vanilla b=$b seed=$seed"
      val res = TrimB.select(ctxFor(g, eta, model, vanilla, seed, pre)._1, 0.5, b)
      val (ref, state) = ctxFor(g, eta, model, vanilla, seed, pre)
      val old = checkEveryDoubling(ref, 0.5, b)
      assert(res.seeds.toSeq == old.seeds.toSeq, cell)
      assert(res.samples > 0, cell)
      assert((res.estTruncated, res.samples, res.work, res.iterations) ==
             (old.estTruncated, old.samples, old.work, old.iterations), cell)
      val bEff = math.min(b, state.nI)
      val target = if (vanilla) state.nI else state.etaI
      val sch = Trim.schedule(state.nI, target, 0.5, TrimB.lnChoose(state.nI, bEff),
                              TrimB.rho(bEff), bEff)
      if (TrimB.minStopCoverage(sch, TrimB.rho(bEff)) > math.ceil(sch.thetaO)) skipped += 1
    }
    assert(skipped > 0, "no cell skipped a check")
  }

  test("lamLower never exceeds the observed coverage") {
    for (cov <- Seq(0.0, 1.0, 10.0, 500.0, 12345.0); a <- Seq(1.0, 5.0, 20.0))
      assert(Trim.lamLower(cov, a) <= cov + 1e-9, s"cov=$cov a=$a")
  }

  test("lamUpper never drops below the observed coverage") {
    for (cov <- Seq(0.0, 1.0, 10.0, 500.0, 12345.0); a <- Seq(1.0, 5.0, 20.0))
      assert(Trim.lamUpper(cov, a) >= cov - 1e-9, s"cov=$cov a=$a")
  }

  test("bounds tighten as coverage grows relative to a") {
    val ratioSmall = Trim.lamLower(50, 10) / Trim.lamUpper(50, 10)
    val ratioBig = Trim.lamLower(5000, 10) / Trim.lamUpper(5000, 10)
    assert(ratioBig > ratioSmall && ratioBig > 0.85)
    assert(Trim.lamLower(50000, 10) / Trim.lamUpper(50000, 10) > 0.95)
  }

  test("schedule: θ_o ≤ θ_max, T ≥ 1, confidences positive") {
    val sch = Trim.schedule(nI = 1000, target = 100, eps = 0.5, lnCandidates = math.log(1000.0))
    assert(sch.thetaO >= 1.0 && sch.thetaO <= sch.thetaMax)
    assert(sch.T >= 1)
    assert(sch.a1 > sch.a2 && sch.a2 > 0)
    assert(sch.epsHat > 0 && sch.epsHat < 1)
  }

  test("schedule: tighter ε inflates the sample budget") {
    val loose = Trim.schedule(1000, 100, 0.5, math.log(1000.0))
    val tight = Trim.schedule(1000, 100, 0.1, math.log(1000.0))
    assert(tight.thetaMax > loose.thetaMax)
  }

  test("schedule: T covers the doubling range") {
    val sch = Trim.schedule(5000, 250, 0.5, math.log(5000.0))
    assert(sch.thetaO * math.pow(2, sch.T - 1) >= sch.thetaMax * 0.999)
  }

  test("select on a deterministic star picks the center") {
    val g = GraphGen.star(30, 1.0)
    val (ctx, _) = ctxFor(g, 10, IC)
    val res = TrimSelector.select(ctx, eps = 0.5)
    assert(res.seeds.toSeq == Seq(0))
    assert(res.samples > 0 && res.iterations >= 1)
  }

  test("select on a deterministic chain picks the source") {
    val g = GraphGen.line(20, 1.0)
    val (ctx, _) = ctxFor(g, 15, IC)
    assert(TrimSelector.select(ctx, 0.5).seeds.toSeq == Seq(0))
  }

  test("select estTruncated lies in the Theorem 3.3 bias band") {
    val g = GraphGen.twoCliques(5, 1.0) // any node activates its 5-clique
    val (ctx, _) = ctxFor(g, 5, IC)
    val res = TrimSelector.select(ctx, 0.3)
    // Γ(v) = min(5, 5) = 5 for every node; the binary mRR estimator may
    // undershoot by at most a (1 − 1/e) factor (here E[Γ̃] = 5·7/9 ≈ 3.89).
    assert(res.estTruncated <= 5.0 + 0.5, s"est=${res.estTruncated}")
    assert(res.estTruncated >= (1 - 1 / math.E) * 5.0 - 0.5, s"est=${res.estTruncated}")
  }

  test("select is deterministic for fixed seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val a = TrimSelector.select(ctxFor(g, 20, IC, seed = 5L)._1, 0.5)
    val b = TrimSelector.select(ctxFor(g, 20, IC, seed = 5L)._1, 0.5)
    assert(a.seeds.toSeq == b.seeds.toSeq && a.samples == b.samples)
  }

  test("select works under the LT model") {
    val g = GraphGen.star(30, 1.0)
    val (ctx, _) = ctxFor(g, 10, LT)
    assert(TrimSelector.select(ctx, 0.5).seeds.toSeq == Seq(0))
  }

  test("select on residual graph avoids activated hubs") {
    // Two disjoint deterministic cliques; after activating block 0, the best
    // node must come from block 1.
    val g = GraphGen.twoCliques(6, 1.0)
    val (ctx, state) = ctxFor(g, 12, IC, preActivate = Array(0, 1, 2, 3, 4, 5))
    assert(state.etaI == 6)
    val res = TrimSelector.select(ctx, 0.5)
    assert(res.seeds.head >= 6, s"picked ${res.seeds.head} from the activated block")
  }

  test("select returns an inactive node even with sparse coverage") {
    val g = CompactGraph.fromEdges(10, Seq.empty) // no edges at all
    val (ctx, _) = ctxFor(g, 4, IC, preActivate = Array(0, 1))
    val res = TrimSelector.select(ctx, 0.5)
    assert(res.seeds.head >= 2)
  }

  test("vanilla mode (AdaptIM skeleton) still finds the dominant node") {
    val g = GraphGen.star(30, 1.0)
    val (ctx, _) = ctxFor(g, 10, IC, vanilla = true)
    assert(AdaptImSelector.select(ctx, 0.5).seeds.toSeq == Seq(0))
  }

  test("vanilla mode needs more samples than truncated mode when η ≪ n") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = math.max(2, g.n / 20)
    val trunc = TrimSelector.select(ctxFor(g, eta, IC, seed = 9L)._1, 0.5)
    val vanilla = AdaptImSelector.select(ctxFor(g, eta, IC, vanilla = true, seed = 9L)._1, 0.5)
    // The paper's efficiency argument (§6.2): sample counts scale with
    // η_i/OPT_i vs n_i/OPT′_i. Allow slack but expect a clear gap.
    assert(vanilla.samples > trunc.samples,
           s"vanilla=${vanilla.samples} trunc=${trunc.samples}")
  }
}
