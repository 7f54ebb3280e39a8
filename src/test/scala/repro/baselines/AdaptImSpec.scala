package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AdaptImSelector, Asti, MRRSamplerCtx, ResidualState, TrimSelector}
import repro.diffusion.DiffusionModel
import repro.graph.GraphGen

/** AdaptIM baseline behaviour: same adaptive loop as ASTI, but vanilla
  * (un-truncated) marginal-spread maximization with single-root RR sets.
  */
class AdaptImSpec extends AnyFunSuite {

  import DiffusionModel.{IC, LT}

  test("selector metadata: vanilla roots, batch of one") {
    assert(AdaptImSelector.vanillaRoots)
    assert(AdaptImSelector.name == "ADAPTIM")
    assert(!TrimSelector.vanillaRoots)
  }

  test("reaches the threshold under IC and LT") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    for (model <- Seq(IC, LT)) {
      val res = Asti.run(g, 40, 0.5, AdaptImSelector, model, 7L)
      assert(res.finalSpread >= 40, s"$model")
      assert(res.seeds.distinct.size == res.seeds.size, s"$model")
    }
  }

  test("one round per seed") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 40, 0.5, AdaptImSelector, IC, 8L)
    assert(res.rounds == res.numSeeds)
  }

  test("selects the dominant node on a deterministic star") {
    val g = GraphGen.star(40, 1.0)
    val res = Asti.run(g, 40, 0.5, AdaptImSelector, IC, 9L)
    assert(res.seeds == Vector(0))
  }

  test("seed counts stay close to ASTI's (the paper's empirical observation)") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = g.n / 8
    val asti = Asti.run(g, eta, 0.5, TrimSelector, IC, 10L)
    val adapt = Asti.run(g, eta, 0.5, AdaptImSelector, IC, 10L)
    assert(adapt.numSeeds <= asti.numSeeds * 2 + 2,
           s"ADAPTIM=${adapt.numSeeds} ASTI=${asti.numSeeds}")
  }

  test("per-round samples scale with n_i/OPT′ rather than η_i/OPT") {
    // On the same residual graph, the vanilla selector must generate more
    // sets than the truncated selector when η ≪ n (Lemma 3.9 vs OPIM).
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = math.max(4, g.n / 25)
    def ctx(vanilla: Boolean) = new MRRSamplerCtx(new ResidualState(g, eta), IC, vanilla, 11L)
    val trunc = TrimSelector.select(ctx(vanilla = false), 0.5)
    val vanilla = AdaptImSelector.select(ctx(vanilla = true), 0.5)
    assert(vanilla.samples > 3 * trunc.samples,
           s"vanilla=${vanilla.samples} trunc=${trunc.samples}")
  }

  test("deterministic in seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val a = Asti.run(g, 25, 0.5, AdaptImSelector, IC, 12L, algoSeed = 3L)
    val b = Asti.run(g, 25, 0.5, AdaptImSelector, IC, 12L, algoSeed = 3L)
    assert(a.seeds == b.seeds)
  }
}
