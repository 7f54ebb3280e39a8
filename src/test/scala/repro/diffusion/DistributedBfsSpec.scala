package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.graph.{CompactGraph, GraphGen}

class DistributedBfsSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.IC

  private def driverSet(real: Realization, seeds: Seq[Int]): Set[Int] =
    real.forwardReachable(seeds.toArray, null).toSet

  test("GraphX Pregel reachability matches driver BFS") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.02)
    val real = new Realization(g, IC, 55L)
    val viaPregel = DistributedBfs.reachableGraphX(spark, g, real, Seq(1, 7))
    assert(viaPregel == driverSet(real, Seq(1, 7)))
  }

  test("driver BFS matches a DuckDB recursive CTE") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.02)
    val real = new Realization(g, IC, 77L)
    import spark.implicits._
    val driverOut = driverSet(real, Seq(0, 3)).toSeq.toDF("node")
    Oracle.assertEquivalent(
      driverOut,
      """WITH RECURSIVE reach(node) AS (
        |  SELECT * FROM (VALUES (0), (3)) t(node)
        |  UNION
        |  SELECT CAST(e.dst AS INT) FROM reach r JOIN edges e ON CAST(e.src AS INT) = r.node
        |)
        |SELECT node FROM reach
        |""".stripMargin,
      "edges" -> real.liveEdgesDF(spark))
  }

  test("cycle handling: BFS terminates and covers the cycle") {
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    assert(driverSet(new Realization(g, IC, 1L), Seq(0)) == Set(0, 1, 2))
  }
}
