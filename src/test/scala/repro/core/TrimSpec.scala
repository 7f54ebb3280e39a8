package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.DiffusionModel
import repro.graph.{CompactGraph, GraphGen}

class TrimSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}

  private def ctxFor(g: CompactGraph, eta: Int, model: DiffusionModel,
                     vanilla: Boolean = false, seed: Long = 1L,
                     preActivate: Array[Int] = Array.empty): (MRRSamplerCtx, ResidualState) = {
    val state = new ResidualState(g, eta)
    if (preActivate.nonEmpty) state.activate(preActivate)
    val ctx = new MRRSamplerCtx(spark, spark.sparkContext.broadcast(g), state.inactive,
                                state.inactiveNodes, state.etaI, model, vanilla, seed)
    (ctx, state)
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
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
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
    val g = GraphGen.dataset(spark, "nethept", scale = 0.1)
    val eta = math.max(2, g.n / 20)
    val trunc = TrimSelector.select(ctxFor(g, eta, IC, seed = 9L)._1, 0.5)
    val vanilla = AdaptImSelector.select(ctxFor(g, eta, IC, vanilla = true, seed = 9L)._1, 0.5)
    // The paper's efficiency argument (§6.2): sample counts scale with
    // η_i/OPT_i vs n_i/OPT′_i. Allow slack but expect a clear gap.
    assert(vanilla.samples > trunc.samples,
           s"vanilla=${vanilla.samples} trunc=${trunc.samples}")
  }
}
