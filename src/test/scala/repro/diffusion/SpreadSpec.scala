package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.graph.{CompactGraph, GraphGen}

class SpreadSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}

  private val fig2 = GraphGen.fig2

  /** Driver-side Monte-Carlo E[I(S)] over `trials` seeded realizations. */
  private def mcSpreadLocal(g: CompactGraph, seeds: Array[Int], model: DiffusionModel,
                            trials: Int, seed0: Long): Double =
    (0 until trials).map(t => new Realization(g, model, seed0 + t).spread(seeds).toDouble).sum / trials

  test("IC distribution probabilities sum to 1") {
    val dist = Spread.exactSpreadDistribution(fig2, Array(0), IC)
    assert(math.abs(dist.map(_._1).sum - 1.0) < 1e-12)
  }

  test("fig2: E[I(v1)] = 2.75 (Example 2.3)") {
    assert(math.abs(Spread.exactExpectedSpread(fig2, Array(0), IC) - 2.75) < 1e-12)
  }

  test("fig2: E[I(v2)] = E[I(v3)] = 2 and E[I(v4)] = 1") {
    assert(Spread.exactExpectedSpread(fig2, Array(1), IC) == 2.0)
    assert(Spread.exactExpectedSpread(fig2, Array(2), IC) == 2.0)
    assert(Spread.exactExpectedSpread(fig2, Array(3), IC) == 1.0)
  }

  test("fig2: truncated spreads at η=2 are 1.75, 2, 2, 1 (Example 2.3)") {
    val vals = (0 until 4).map(v => Spread.exactExpectedTruncated(fig2, Array(v), 2, IC))
    assert(vals == Seq(1.75, 2.0, 2.0, 1.0))
  }

  test("fig2: truncation picks v2/v3 over v1 while vanilla spread picks v1") {
    val vanillaBest = (0 until 4).maxBy(v => Spread.exactExpectedSpread(fig2, Array(v), IC))
    assert(vanillaBest == 0) // v1
    val truncBest = Spread.exactExpectedTruncated(fig2, Array(1), 2, IC)
    assert(truncBest > Spread.exactExpectedTruncated(fig2, Array(0), 2, IC))
  }

  test("IC line graph expected spread is geometric") {
    val g = GraphGen.line(4, 0.5)
    assert(math.abs(Spread.exactExpectedSpread(g, Array(0), IC) - 1.875) < 1e-12)
  }

  test("multi-seed spread: both cliques covered") {
    val g = GraphGen.twoCliques(3, 1.0)
    assert(Spread.exactExpectedSpread(g, Array(0), IC) == 3.0)
    assert(Spread.exactExpectedSpread(g, Array(0, 3), IC) == 6.0)
  }

  test("truncation caps the spread") {
    val g = GraphGen.twoCliques(3, 1.0)
    assert(Spread.exactExpectedTruncated(g, Array(0, 3), 4, IC) == 4.0)
  }

  test("LT distribution probabilities sum to 1 on a valid LT graph") {
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 0.6), (0, 2, 0.7)))
    val dist = Spread.exactSpreadDistribution(g, Array(0), LT)
    assert(math.abs(dist.map(_._1).sum - 1.0) < 1e-12)
  }

  test("LT fan-out expectation: 1 + 0.6 + 0.7") {
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 0.6), (0, 2, 0.7)))
    assert(math.abs(Spread.exactExpectedSpread(g, Array(0), LT) - 2.3) < 1e-12)
  }

  test("LT chain expectation: 1 + 0.5 + 0.25") {
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.5)))
    assert(math.abs(Spread.exactExpectedSpread(g, Array(0), LT) - 1.75) < 1e-12)
  }

  test("LT weighted cascade always activates a deterministic chain's successor") {
    val g = CompactGraph.weightedCascade(3, Seq((0, 1), (1, 2)))
    assert(Spread.exactExpectedSpread(g, Array(0), LT) == 3.0)
  }

  test("avoidProb basics") {
    assert(Spread.avoidProb(10, 0, 3) == 1.0)
    assert(Spread.avoidProb(10, 3, 0) == 1.0)
    assert(math.abs(Spread.avoidProb(4, 2, 2) - 1.0 / 6.0) < 1e-12)
    assert(Spread.avoidProb(4, 3, 2) == 0.0)
  }

  test("avoidProb equals closed-form binomial ratio") {
    def choose(n: Int, k: Int): Double =
      (0 until k).map(i => (n - i).toDouble / (i + 1)).product
    for (n <- Seq(6, 9); x <- 0 to 4; k <- 1 to 4 if x + k <= n) {
      val expect = choose(n - x, k) / choose(n, k)
      assert(math.abs(Spread.avoidProb(n, x, k) - expect) < 1e-12, s"n=$n x=$x k=$k")
    }
  }

  test("Theorem 3.3 bounds hold exactly on fig2 (IC)") {
    for (eta <- 1 to 4; v <- 0 until 4) {
      val gamma = Spread.exactExpectedTruncated(fig2, Array(v), eta, IC)
      val tilde = Spread.exactTildeGamma(fig2, Array(v), eta, IC)
      assert(tilde <= gamma + 1e-9, s"η=$eta v=$v tilde=$tilde gamma=$gamma")
      assert(tilde >= (1 - 1 / math.E) * gamma - 1e-9, s"η=$eta v=$v tilde=$tilde gamma=$gamma")
    }
  }

  test("Theorem 3.3 bounds hold on varied graphs, models and seed sets") {
    val cases: Seq[(CompactGraph, DiffusionModel)] = Seq(
      (GraphGen.line(5, 0.5), IC),
      (GraphGen.star(6, 0.7), IC),
      (GraphGen.twoCliques(3, 0.6), IC),
      (CompactGraph.fromEdges(4, Seq((0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.3))), LT),
      (CompactGraph.weightedCascade(4, Seq((0, 1), (1, 2), (0, 3))), LT),
    )
    for ((g, model) <- cases; eta <- 1 to g.n; seeds <- Seq(Array(0), Array(0, g.n - 1))) {
      val gamma = Spread.exactExpectedTruncated(g, seeds, eta, model)
      val tilde = Spread.exactTildeGamma(g, seeds, eta, model)
      assert(tilde <= gamma + 1e-9, s"g.n=${g.n} $model η=$eta")
      assert(tilde >= (1 - 1 / math.E) * gamma - 1e-9, s"g.n=${g.n} $model η=$eta")
    }
  }

  test("tildeGamma equals η when S surely reaches all nodes") {
    val g = GraphGen.line(4, 1.0)
    for (eta <- 1 to 4)
      assert(math.abs(Spread.exactTildeGamma(g, Array(0), eta, IC) - eta) < 1e-9)
  }

  test("mcSpreadLocal converges to the exact expectation") {
    val est = mcSpreadLocal(fig2, Array(0), IC, 20000, 1L)
    assert(math.abs(est - 2.75) < 0.05, s"est=$est")
  }

  test("mcSpread (RDD) converges to the exact expectation") {
    val est = Spread.mcSpread(spark, fig2, Array(0), IC, 20000, 2L)
    assert(math.abs(est - 2.75) < 0.05, s"est=$est")
  }

  test("mcSpread agrees with mcSpreadLocal given identical seeds") {
    val g = GraphGen.star(10, 0.4)
    val local = mcSpreadLocal(g, Array(0), IC, 500, 7L)
    val dist = Spread.mcSpread(spark, g, Array(0), IC, 500, 7L)
    assert(math.abs(local - dist) < 1e-9)
  }

  test("LT Monte-Carlo matches LT enumeration") {
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.5)))
    val est = mcSpreadLocal(g, Array(0), LT, 20000, 5L)
    assert(math.abs(est - 1.75) < 0.05, s"est=$est")
  }

  test("IC enumeration guards against oversized graphs") {
    val big = GraphGen.line(30, 0.5)
    intercept[IllegalArgumentException](Spread.exactExpectedSpread(big, Array(0), IC))
  }
}
