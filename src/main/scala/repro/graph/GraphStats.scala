package repro.graph

import org.apache.spark.graphx.{Edge, Graph => XGraph}
import org.apache.spark.sql.SparkSession

/** Graph statistics backing Table 2: the size of the largest weakly
  * connected component (LWCC), from GraphX `connectedComponents` on the
  * undirected view. Table 2 reads n and m from the CSR itself.
  */
object GraphStats {

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
