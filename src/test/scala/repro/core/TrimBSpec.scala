package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.diffusion.DiffusionModel
import repro.graph.{CompactGraph, GraphGen}

class TrimBSpec extends AnyFunSuite {

  import DiffusionModel.IC

  private def ctxFor(g: CompactGraph, eta: Int, seed: Long = 1L): MRRSamplerCtx =
    new MRRSamplerCtx(new ResidualState(g, eta), IC, false, seed)

  test("ρ_1 = 1") {
    assert(TrimB.rho(1) == 1.0)
  }

  test("ρ_2 = 0.75 and ρ_4 = 1 − (3/4)^4") {
    assert(TrimB.rho(2) == 0.75)
    assert(math.abs(TrimB.rho(4) - (1.0 - math.pow(0.75, 4))) < 1e-12)
  }

  test("ρ_b decreases towards 1 − 1/e") {
    val limit = 1.0 - 1.0 / math.E
    assert(TrimB.rho(2) > TrimB.rho(4) && TrimB.rho(4) > TrimB.rho(8))
    assert(TrimB.rho(8) > limit)
    assert(TrimB.rho(1000) - limit < 1e-3)
  }

  test("lnChoose matches direct computation") {
    def choose(n: Int, b: Int): Double =
      (0 until b).map(i => (n - i).toDouble / (i + 1)).product
    for (n <- Seq(5, 10, 40); b <- 0 to 4)
      assert(math.abs(TrimB.lnChoose(n, b) - math.log(choose(n, b))) < 1e-9, s"C($n,$b)")
  }

  test("lnChoose(n, 0) = 0 and validates inputs") {
    assert(TrimB.lnChoose(5, 0) == 0.0)
    intercept[IllegalArgumentException](TrimB.lnChoose(3, 4))
  }

  test("select returns at most b seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = TrimB.select(ctxFor(g, 30), 0.5, b = 4)
    assert(res.seeds.length <= 4 && res.seeds.nonEmpty)
    assert(res.seeds.distinct.length == res.seeds.length)
  }

  test("select covers both deterministic cliques with b=2") {
    val g = GraphGen.twoCliques(6, 1.0)
    val res = TrimB.select(ctxFor(g, 12), 0.5, b = 2)
    assert(res.seeds.length == 2)
    assert(res.seeds.map(_ / 6).toSet == Set(0, 1), s"seeds=${res.seeds.toSeq}")
  }

  test("select on a star keeps the center in the batch") {
    val g = GraphGen.star(30, 1.0)
    val res = TrimB.select(ctxFor(g, 10), 0.5, b = 3)
    assert(res.seeds.contains(0))
  }

  test("TrimBSelector rejects a batch size below 1") {
    val e = intercept[IllegalArgumentException](TrimBSelector(0))
    assert(e.getMessage.contains("b=0"), e.getMessage)
  }

  test("batch size larger than the residual is clamped") {
    val g = CompactGraph.fromEdges(3, Seq.empty)
    val res = TrimB.select(ctxFor(g, 3), 0.5, b = 8)
    assert(res.seeds.length <= 3)
  }

  test("select is deterministic for fixed seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val a = TrimB.select(ctxFor(g, 20, seed = 5L), 0.5, b = 4)
    val b = TrimB.select(ctxFor(g, 20, seed = 5L), 0.5, b = 4)
    assert(a.seeds.toSeq == b.seeds.toSeq && a.samples == b.samples)
  }

  test("estTruncated reflects the batch's truncated spread on cliques") {
    val g = GraphGen.twoCliques(5, 1.0)
    val res = TrimB.select(ctxFor(g, 10), 0.3, b = 2)
    // Two seeds, one per clique, activate all 10 = η nodes.
    assert(math.abs(res.estTruncated - 10.0) < 2.0, s"est=${res.estTruncated}")
  }
}
