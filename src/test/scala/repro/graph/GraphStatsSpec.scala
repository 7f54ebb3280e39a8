package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.graph.CompactGraphOps._

class GraphStatsSpec extends AnyFunSuite with SparkSpec {

  /** Driver-side WCC via union-find, used to cross-check GraphX. */
  private def lwccSizeLocal(g: CompactGraph): Long = {
    val parent = Array.tabulate(g.n)(identity)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    var e = 0
    while (e < g.m) {
      val a = find(g.srcs(e)); val b = find(g.dsts(e))
      if (a != b) parent(a) = b
      e += 1
    }
    val counts = new Array[Long](g.n)
    var v = 0
    var best = 0L
    while (v < g.n) {
      val r = find(v); counts(r) += 1
      if (counts(r) > best) best = counts(r)
      v += 1
    }
    best
  }

  test("degreesDF matches CSR degrees") {
    val g = GraphGen.fig2
    val byNode = g.degreesDF(spark).collect()
      .map(r => r.getInt(0) -> (r.getLong(1), r.getLong(2))).toMap
    (0 until g.n).foreach { v =>
      assert(byNode(v) == (g.outDeg(v).toLong, g.inDeg(v).toLong), s"node $v")
    }
  }

  test("degreesDF agrees with DuckDB oracle") {
    val g = ReferenceGraphGen.fromDF(
      ReferenceGraphGen.powerLawEdges(spark, 60, 150, 2.3, 11L, undirected = false), 60)
    val edges = g.edgesDF(spark)
    import spark.implicits._
    val nodes = spark.range(g.n).selectExpr("cast(id as int) as node")
    val sparkOut = g.degreesDF(spark)
      .selectExpr("node", "cast(outDeg as long) as outdeg", "cast(inDeg as long) as indeg")
    Oracle.assertEquivalent(
      sparkOut,
      """SELECT n.node AS node,
        |       coalesce(o.c, 0) AS outdeg,
        |       coalesce(i.c, 0) AS indeg
        |FROM nodes n
        |LEFT JOIN (SELECT CAST(src AS INT) s, count(*) c FROM edges GROUP BY 1) o ON o.s = n.node
        |LEFT JOIN (SELECT CAST(dst AS INT) s, count(*) c FROM edges GROUP BY 1) i ON i.s = n.node
        |""".stripMargin,
      "edges" -> edges, "nodes" -> nodes)
  }

  test("LWCC of a connected line graph is n") {
    val g = GraphGen.line(10, 0.5)
    assert(lwccSizeLocal(g) == 10)
    assert(GraphStats.lwccSize(spark, g) == 10)
  }

  test("LWCC of two cliques is one clique") {
    val g = GraphGen.twoCliques(4, 1.0)
    assert(lwccSizeLocal(g) == 4)
    assert(GraphStats.lwccSize(spark, g) == 4)
  }

  test("LWCC treats direction as irrelevant (weak connectivity)") {
    // 0 -> 1 <- 2: weakly connected despite no directed path 0..2.
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 1.0), (2, 1, 1.0)))
    assert(lwccSizeLocal(g) == 3)
    assert(GraphStats.lwccSize(spark, g) == 3)
  }

  test("LWCC with isolated nodes counts only the component") {
    val g = CompactGraph.fromEdges(6, Seq((0, 1, 1.0), (1, 2, 1.0)))
    assert(lwccSizeLocal(g) == 3)
    assert(GraphStats.lwccSize(spark, g) == 3)
  }

  test("GraphX and union-find LWCC agree on a generated graph") {
    val g = ReferenceGraphGen.fromDF(
      ReferenceGraphGen.powerLawEdges(spark, 200, 500, 2.3, 13L, undirected = false), 200)
    assert(GraphStats.lwccSize(spark, g) == lwccSizeLocal(g))
  }

  test("generated datasets are dominated by one large WCC") {
    val g = GraphGen.dataset("nethept", scale = 0.2)
    val lwcc = lwccSizeLocal(g)
    // Power-law graphs at this density keep a large component, mirroring
    // the paper's "highly interconnected" observation (Table 2).
    assert(lwcc > g.n * 0.3, s"lwcc=$lwcc of n=${g.n}")
  }
}
