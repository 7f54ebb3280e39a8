package repro.graph

import org.apache.spark.graphx.{Edge, Graph => XGraph}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph statistics backing Table 2: the size of the largest weakly
  * connected component (LWCC), from GraphX `connectedComponents` on the
  * undirected view. Table 2 reads n and m from the CSR itself. `degreesDF`
  * is the relational view of the degrees, checked against the CSR and DuckDB
  * in tests; Table 2 does not use it.
  */
object GraphStats {

  /** Out-degree / in-degree per node as a DataFrame (node, outDeg, inDeg). */
  def degreesDF(spark: SparkSession, g: CompactGraph): DataFrame = {
    val edges = g.edgesDF(spark)
    import spark.implicits._
    val nodes = spark.range(g.n).select($"id".cast("int") as "node")
    val outD = edges.groupBy($"src" as "node").agg(count(lit(1)) as "outDeg")
    val inD = edges.groupBy($"dst" as "node").agg(count(lit(1)) as "inDeg")
    nodes
      .join(outD, Seq("node"), "left")
      .join(inD, Seq("node"), "left")
      .na.fill(0L, Seq("outDeg", "inDeg"))
  }

  /** Size of the largest weakly connected component via GraphX. */
  def lwccSize(spark: SparkSession, g: CompactGraph): Long = {
    val sc = spark.sparkContext
    val edgeRdd = sc.parallelize(
      (0 until g.m).map(e => Edge(g.srcs(e).toLong, g.dsts(e).toLong, 1)))
    val vertexRdd = sc.parallelize((0 until g.n).map(v => (v.toLong, 1)))
    val xg = XGraph(vertexRdd, edgeRdd)
    // connectedComponents treats edges as undirected links, i.e. WCC.
    val cc = xg.connectedComponents().vertices
    cc.map { case (_, comp) => (comp, 1L) }.reduceByKey(_ + _).map(_._2).max()
  }
}
