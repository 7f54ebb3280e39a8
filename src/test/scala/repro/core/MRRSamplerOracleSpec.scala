package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.diffusion.DiffusionModel
import repro.graph.CompactGraphOps._
import repro.graph.{CompactGraph, GraphGen}

/** Relational oracle for the mRR sampler in the deterministic (p = 1) regime:
  * whatever coins the sampler flips, an mRR-set must equal the reverse
  * transitive closure of its roots — which DuckDB can compute with a
  * recursive CTE over the (reversed) edge relation.
  */
class MRRSamplerOracleSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.IC

  private def deterministicGraph: CompactGraph = CompactGraph.fromEdges(12, Seq(
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 2, 1.0),
    (5, 6, 1.0), (7, 6, 1.0), (8, 9, 1.0), (9, 8, 1.0), (10, 11, 1.0)))

  test("p=1 mRR-set equals the DuckDB reverse closure of its roots") {
    val g = deterministicGraph
    val state = new ResidualState(g, 4) // k = 3 roots per set
    (0 until 5).foreach { idx =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, 4, IC, vanillaRoots = false, 5L, idx.toLong)
      // With p = 1 the set is the reverse closure of its roots, so it is
      // itself reverse-closed: closure(set) == set. DuckDB recomputes the
      // closure of all members and must give back exactly the set.
      import spark.implicits._
      val sparkSet = set.sorted.toSeq.toDF("node")
      val edgesDF = g.edgesDF(spark).selectExpr("src", "dst")
      val seedValues = set.map(v => s"($v)").mkString(", ")
      Oracle.assertEquivalent(
        sparkSet,
        s"""WITH RECURSIVE reach(node) AS (
           |  SELECT * FROM (VALUES $seedValues) t(node)
           |  UNION
           |  SELECT CAST(e.src AS INT) FROM reach r JOIN edges e ON CAST(e.dst AS INT) = r.node
           |)
           |SELECT node FROM reach ORDER BY node
           |""".stripMargin,
        "edges" -> edgesDF)
    }
  }

  test("p=1 vanilla RR-set is closed under reverse reachability") {
    val g = deterministicGraph
    val state = new ResidualState(g, 4)
    (0 until 10).foreach { idx =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, 4, IC, vanillaRoots = true, 7L, idx.toLong)
      val members = set.toSet
      // Every in-neighbor of a member is a member (p = 1 ⇒ closure).
      members.foreach { v =>
        g.foreachInEdge(v)(e => assert(members.contains(g.srcs(e)), s"set=$members v=$v"))
      }
    }
  }

  test("residual p=1 mRR-set closure respects the inactive mask") {
    val g = deterministicGraph
    val state = new ResidualState(g, 6)
    state.activate(Array(1, 9))
    (0 until 10).foreach { idx =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, state.etaI, IC, false, 9L, idx.toLong)
      val members = set.toSet
      assert(!members.contains(1) && !members.contains(9))
      // Closure within the residual graph only: inactive in-neighbors of
      // members are members.
      members.foreach { v =>
        g.foreachInEdge(v) { e =>
          val u = g.srcs(e)
          if (state.inactive(u)) assert(members.contains(u), s"set=$members v=$v u=$u")
        }
      }
    }
  }
}
