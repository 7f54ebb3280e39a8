package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.{Coverage, MRRSamplerCtx, ResidualState, SelectResult, Trim}
import repro.diffusion.{DiffusionModel, Realization, Spread}
import repro.graph.{CompactGraph, GraphGen}

class AteucSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}

  test("deterministic star: the center alone satisfies any η") {
    val g = GraphGen.star(50, 1.0)
    val res = Ateuc.select(g, eta = 25, IC, 1L)
    assert(res.seeds.toSeq == Seq(0))
    assert(res.iterations <= Ateuc.MaxIterations)
  }

  test("deterministic two-clique: η well below the clique size needs one seed") {
    // η far enough below E[I(v)] = 8 that the lower-confidence bound
    // certifies a single seed at the initial sample size.
    val g = GraphGen.twoCliques(8, 1.0)
    val res = Ateuc.select(g, 4, IC, 2L)
    assert(res.seeds.length == 1)
  }

  test("deterministic two-clique: η above one clique needs one seed per clique") {
    // η = 14 > 8 forces both cliques; the certified bound reaches 14 < 16
    // after a few doublings.
    val g = GraphGen.twoCliques(8, 1.0)
    val res = Ateuc.select(g, 14, IC, 3L)
    assert(res.seeds.length == 2)
    assert(res.seeds.map(_ / 8).toSet == Set(0, 1))
  }

  test("selected set's expected spread meets the threshold (MC check)") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = g.n / 10
    val res = Ateuc.select(g, eta, IC, 4L)
    val mc = Spread.mcSpread(spark, g, res.seeds, IC, 3000, 99L)
    // ATEUC targets E[I(S)] ≥ η via a sampled estimate; allow estimator noise.
    assert(mc >= eta * 0.8, s"mc=$mc eta=$eta")
  }

  test("estimate reported is consistent with the threshold") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = g.n / 10
    val res = Ateuc.select(g, eta, IC, 5L)
    assert(res.estTruncated >= eta * 0.9)
  }

  test("selection is non-adaptive: independent of any realization, deterministic in seed") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val a = Ateuc.select(g, 20, IC, 6L)
    // The pre-broadcast form, which perfbench calls, forwards to the same selection.
    val b = Ateuc.select(spark, spark.sparkContext.broadcast(g), 20, IC, 6L)
    assert(a.seeds.toSeq == b.seeds.toSeq)
    assert((a.estTruncated, a.samples, a.work, a.iterations) == (b.estTruncated, b.samples, b.work, b.iterations))
  }

  test("larger η needs at least as many seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val small = Ateuc.select(g, g.n / 20, IC, 7L)
    val large = Ateuc.select(g, g.n / 5, IC, 7L)
    assert(large.seeds.length >= small.seeds.length)
  }

  test("works under the LT model") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val eta = 20
    val res = Ateuc.select(g, eta, LT, 8L)
    assert(res.seeds.length >= 1)
    val mc = Spread.mcSpread(spark, g, res.seeds, LT, 3000, 100L)
    assert(mc >= eta * 0.8, s"mc=$mc")
  }

  test("non-adaptive selection can miss η on individual realizations (the paper's N/A effect)") {
    val g = GraphGen.dataset("nethept", scale = 0.2)
    val eta = g.n / 10
    val res = Ateuc.select(g, eta, IC, 9L)
    val spreads = (0 until 40).map(r => new Realization(g, IC, 500L + r).spread(res.seeds))
    // The per-realization spread straddles its mean: not every realization
    // can be guaranteed, and the spread must genuinely vary.
    assert(spreads.distinct.size > 1)
    assert(spreads.min < spreads.max)
  }

  test("when no prefix is certified, the budget runs out and the fallback is returned") {
    // η = n: the center covers every RR-set, so its estimate reaches η, but
    // the lower confidence bound stays below full coverage at every θ.
    val g = GraphGen.star(50, 1.0)
    val res = Ateuc.select(g, g.n, IC, 11L)
    assert(res.iterations == Ateuc.MaxIterations + 1)
    assert(res.seeds.toSeq == Seq(0))
    assert(res.estTruncated == g.n)
    assert(res.samples == Ateuc.InitialTheta.toLong << (Ateuc.MaxIterations - 1))
  }

  test("samples and work counters are populated") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Ateuc.select(g, 20, IC, 10L)
    assert(res.samples >= Ateuc.InitialTheta && res.work > 0)
  }

  private def fullGraphCtx(g: CompactGraph, eta: Int, model: DiffusionModel, seed: Long): MRRSamplerCtx =
    new MRRSamplerCtx(new ResidualState(g, eta), model, vanillaRoots = true, seedBase = seed)

  /** Reference `Ateuc.select` that materializes the full greedy sequence at
    * every doubling and scans it for S_l, the plain-estimate prefix and S_u,
    * with `estTruncated` through a boxed seed set. `Ateuc.select` pulls greedy
    * only up to S_u and must return the same result.
    */
  private def fullScanSelect(ctx: MRRSamplerCtx): SelectResult = {
    val n = ctx.graph.n
    val eta = ctx.etaI
    val a = math.log(n.toDouble) + math.log(Ateuc.MaxIterations / 0.01)
    def result(seeds: Array[Int], iterations: Int) = {
      val seedSet = seeds.toSet
      val est = n.toDouble * ctx.sets.count(_.exists(seedSet.contains)) / ctx.sets.length
      SelectResult(seeds, est, ctx.totalSamples, ctx.totalWork, iterations)
    }
    var theta = Ateuc.InitialTheta.toLong
    var iter = 1
    var fallback = Array.empty[Int]
    while (iter <= Ateuc.MaxIterations) {
      ctx.growTo(theta)
      val seq = Coverage.greedySequence(ctx.counts, ctx.sets, n).toArray
      val picks = seq.map(_._1)
      var sL = -1
      var sU: Array[Int] = null
      var plain: Array[Int] = null
      var i = 0
      while (i < seq.length && sU == null) {
        val c = seq(i)._3
        if (sL < 0 && n * Trim.lamUpper(c, a) / theta >= eta) sL = i + 1
        if (plain == null && n.toDouble * c / theta >= eta) plain = picks.take(i + 1)
        if (n * Trim.lamLower(c, a) / theta >= eta) sU = picks.take(i + 1)
        i += 1
      }
      if (plain != null) fallback = plain
      if (sU != null && sL > 0 && sU.length <= 2 * sL) return result(sU, iter)
      theta *= 2
      iter += 1
    }
    result(if (fallback.nonEmpty) fallback else Array.tabulate(n)(identity), Ateuc.MaxIterations + 1)
  }

  test("select matches the full-sequence scan, and its results are pinned") {
    // (graph, model, η/n, selection seed, then the pinned seeds, samples,
    // iterations, estTruncated and work). The star case runs out of budget.
    // Pinned at the constant-work reverse BFS, whose work counts draws.
    val nethept = GraphGen.dataset("nethept", scale = 0.1)
    val star = GraphGen.star(50, 1.0)
    val cases = Seq(
      (nethept, IC, 0.01, 21L, Seq(1, 4), 256L, 1, 106.875, 1842L),
      (nethept, IC, 0.1, 21L, Seq(0, 1, 5, 2, 4, 6), 8192L, 6, 190.0, 55585L),
      (nethept, IC, 0.2, 21L,
       Seq(0, 1, 5, 2, 4, 6, 11, 22, 12, 9, 13, 23, 3, 7, 24, 30, 18, 8, 32, 36, 15, 19, 33),
       8192L, 6, 349.94140625, 55585L),
      (nethept, LT, 0.01, 21L, Seq(0, 2), 256L, 1, 136.5625, 1027L),
      (nethept, LT, 0.1, 21L, Seq(0, 1, 5, 4, 2), 8192L, 6, 201.875, 32181L),
      (nethept, LT, 0.2, 21L, Seq(0, 1, 2, 6, 5, 4, 3, 10, 7, 13, 9, 8, 23, 17), 4096L, 5,
       363.30078125, 16212L),
      (star, IC, 1.0, 11L, Seq(0), 2097152L, Ateuc.MaxIterations + 1, 50.0, 2055372L))
    for ((g, model, frac, seed, seeds, samples, iterations, est, work) <- cases) {
      val eta = (g.n * frac).toInt
      val res = Ateuc.select(fullGraphCtx(g, eta, model, seed))
      val ref = fullScanSelect(fullGraphCtx(g, eta, model, seed))
      val clue = s"$model, η = $eta"
      assert(res.seeds.toSeq == ref.seeds.toSeq, clue)
      assert((res.samples, res.iterations, res.estTruncated, res.work) ==
               (ref.samples, ref.iterations, ref.estTruncated, ref.work), clue)
      assert(res.seeds.toSeq == seeds, clue)
      assert((res.samples, res.iterations, res.estTruncated, res.work) ==
               (samples, iterations, est, work), clue)
    }
  }
}
