package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.DiffusionModel
import repro.graph.GraphGen

class ExperimentsSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.IC

  test("ExpConfig threshold grids match the paper") {
    assert(ExpConfig.largeEtaFracs == Seq(0.01, 0.05, 0.1, 0.15, 0.2))
    assert(ExpConfig.smallEtaFracs == Seq(0.01, 0.02, 0.03, 0.04, 0.05))
    assert(ExpConfig.fracsFor("livejournal") == ExpConfig.smallEtaFracs)
    assert(ExpConfig.fracsFor("nethept") == ExpConfig.largeEtaFracs)
  }

  test("a non-positive or unparsable scale or realization count is rejected, naming it and its value") {
    def rejection(f: => Any): String = intercept[IllegalArgumentException](f).getMessage
    val env = Map("REPRO_SCALE" -> "-0.5", "REPRO_REALIZATIONS" -> "0", "X" -> "many")
    assert(rejection(ExpConfig.positive(env, "REPRO_SCALE", 1.0)(_.toDouble))
             .contains("REPRO_SCALE = -0.5 must be positive"))
    assert(rejection(ExpConfig.positive(env, "REPRO_REALIZATIONS", 3)(_.toInt))
             .contains("REPRO_REALIZATIONS = 0 must be positive"))
    assert(rejection(ExpConfig.positive(env, "X", 3)(_.toInt)).contains("X = many is not a number"))
    assert(rejection(ExpConfig.positive(Map("S" -> "NaN"), "S", 1.0)(_.toDouble)).contains("S = NaN"))
    assert(ExpConfig.positive(Map("S" -> " 0.25"), "S", 1.0)(_.toDouble) == 0.25)
    assert(ExpConfig.positive(Map.empty, "REPRO_REALIZATIONS", 3)(_.toInt) == 3)
    // The same values passed to the runners directly.
    assert(rejection(GraphGen.dataset("nethept", scale = 0.0)).contains("scale = 0.0 must be positive"))
    val g = GraphGen.dataset("nethept", scale = 0.05)
    assert(rejection(Table3.runCell(g, "nethept", IC, 0.1, realizations = 0, seed = 1L))
             .contains("realizations = 0 must be at least 1"))
    assert(rejection(AlgoComparison.run("nethept", IC, 0.1, realizations = 0, scale = 0.05))
             .contains("realizations = 0 must be at least 1"))
  }

  test("Table3Job rejects a realization count that is not a positive integer, naming it") {
    def rejection(arg: String): String =
      intercept[IllegalArgumentException](repro.jobs.Table3Job.main(Array(arg))).getMessage
    assert(rejection("0").contains("realizations = 0 must be positive"))
    assert(rejection("x").contains("realizations = x is not a number"))
  }

  /** One Table 2 run at scale 0.05, shared by the Table 2 tests. */
  private lazy val table2 = Table2.run(spark, scale = 0.05)

  test("Table2.run returns one row per dataset with sane stats") {
    val rows = table2
    assert(rows.map(_.name) == Seq("nethept", "epinions", "youtube", "livejournal"))
    rows.foreach { r =>
      assert(r.n > 0 && r.m > 0, r.toString)
      assert(r.avgDeg > 0.5, r.toString)
      assert(r.avgDeg == (if (r.directed) 2.0 else 1.0) * r.m / r.n, r.toString)
      assert(r.lwcc > 0 && r.lwcc <= r.n, r.toString)
    }
  }

  test("Table2 directedness mirrors the paper's type column") {
    val rows = table2
    assert(rows.map(r => r.name -> r.directed).toMap ==
      Map("nethept" -> false, "epinions" -> true, "youtube" -> false, "livejournal" -> true))
  }

  test("Table2.format renders every dataset row") {
    val out = Table2.format(table2)
    Seq("nethept", "epinions", "youtube", "livejournal").foreach(n => assert(out.contains(n)))
  }

  test("Table3.runCell: ASTI reaches η and fields are consistent") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val cell = Table3.runCell(g, "nethept", IC, etaFrac = 0.1,
                              realizations = 2, seed = 1L)
    assert(cell.eta == (g.n * 0.1).toInt)
    assert(cell.astiAvgSeeds > 0)
    assert(cell.ateucSeeds > 0)
    assert(cell.feasibleRealizations >= 0 && cell.feasibleRealizations <= 2)
  }

  test("Table3 improvement is defined only when every realization is feasible") {
    val infeasible = Table3.Cell("d", IC, 0.1, 10, 5.0, 8, 1, 2)
    assert(infeasible.improvement.isEmpty)
    val feasible = Table3.Cell("d", IC, 0.1, 10, 5.0, 8, 2, 2)
    assert(math.abs(feasible.improvement.get - 0.6) < 1e-9)
  }

  test("Table3.format renders both improvement and N/A cells") {
    val cells = Seq(
      Table3.Cell("d", IC, 0.1, 10, 5.0, 8, 2, 2),
      Table3.Cell("d", IC, 0.2, 20, 5.0, 8, 1, 2))
    val out = Table3.format(cells)
    assert(out.contains("60.0%") && out.contains("N/A"))
  }

  test("Table3.paper carries the full 8-row grid") {
    assert(Table3.paper.size == 8)
    assert(Table3.paper.forall(_._3.size == 5))
  }

  test("AlgoComparison runs all six algorithms on a tiny config") {
    val rows = AlgoComparison.run("nethept", IC, etaFrac = 0.1,
                                  realizations = 2, scale = 0.05, seed = 4L)
    assert(rows.map(_.algo) == Seq("ASTI", "ASTI-2", "ASTI-4", "ASTI-8", "ADAPTIM", "ATEUC"))
    // Adaptive algorithms are reliable by construction (§6.4).
    rows.filterNot(_.algo == "ATEUC").foreach { r =>
      assert(r.feasible == r.realizations, s"${r.algo} missed the threshold")
      assert(r.avgSeeds > 0 && r.avgSamples > 0)
    }
  }

  test("AlgoComparison.format renders a row per algorithm") {
    val rows = Seq(AlgoComparison.Row("ASTI", 3.0, 100.0, 1000.0, 5.0, 2, 2))
    val out = AlgoComparison.format("nethept", IC, 0.1, rows)
    assert(out.contains("ASTI") && out.contains("3.00"))
  }
}
