package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Views of a `CompactGraph` that only tests and test oracles use. */
object CompactGraphOps {

  implicit class GraphViews(private val g: CompactGraph) {
    def outDeg(v: Int): Int = g.outOff(v + 1) - g.outOff(v)

    /** Iterate edge ids leaving `v`. */
    @inline def foreachOutEdge(v: Int)(f: Int => Unit): Unit = {
      var e = g.outOff(v)
      while (e < g.outOff(v + 1)) { f(e); e += 1 }
    }

    /** Iterate edge ids entering `v`. */
    @inline def foreachInEdge(v: Int)(f: Int => Unit): Unit = {
      var i = g.inOff(v)
      while (i < g.inOff(v + 1)) { f(g.inEdge(i)); i += 1 }
    }

    /** In-edge ids of `v` in deterministic (edge-id) order — LT choice order. */
    def inEdgesOf(v: Int): Array[Int] =
      java.util.Arrays.copyOfRange(g.inEdge, g.inOff(v), g.inOff(v + 1))

    /** Edge list as a DataFrame (src, dst, p) for SQL-side checks. */
    def edgesDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      (0 until g.m).map(e => (g.srcs(e), g.dsts(e), g.probs(e))).toDF("src", "dst", "p")
    }

    /** Out-degree / in-degree per node as a DataFrame (node, outDeg, inDeg),
      * checked against the CSR and the DuckDB oracle.
      */
    def degreesDF(spark: SparkSession): DataFrame = {
      val edges = edgesDF(spark)
      import spark.implicits._
      val nodes = spark.range(g.n).select($"id".cast("int") as "node")
      val outD = edges.groupBy($"src" as "node").agg(count(lit(1)) as "outDeg")
      val inD = edges.groupBy($"dst" as "node").agg(count(lit(1)) as "inDeg")
      nodes
        .join(outD, Seq("node"), "left")
        .join(inD, Seq("node"), "left")
        .na.fill(0L, Seq("outDeg", "inDeg"))
    }
  }
}
