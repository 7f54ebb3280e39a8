package repro.diffusion

import org.apache.spark.graphx.{Edge, EdgeDirection, Graph => XGraph, VertexId}
import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph

/** Distributed reachability over the live edges of a realization via GraphX
  * Pregel. It must agree with the driver BFS in
  * `Realization.forwardReachable`, which the tests also check against a
  * DuckDB recursive-CTE closure — the correctness anchor for the (much
  * faster) driver propagation used inside the adaptive loop.
  */
object DistributedBfs {

  /** Reachable-from-seeds via GraphX Pregel over the live edges of a
    * realization (message = "you are reached").
    */
  def reachableGraphX(spark: SparkSession, g: CompactGraph, real: Realization,
                      seeds: Seq[Int]): Set[Int] = {
    val sc = spark.sparkContext
    val live = (0 until g.m).filter(real.liveInto)
    val edgeRdd = sc.parallelize(live.map(e => Edge(g.srcs(e).toLong, g.dsts(e).toLong, 1)))
    val seedSet = seeds.toSet
    val vertexRdd = sc.parallelize((0 until g.n).map(v => (v.toLong, seedSet.contains(v))))
    val xg = XGraph(vertexRdd, edgeRdd, defaultVertexAttr = false)
    val result = xg.pregel(false, activeDirection = EdgeDirection.Out)(
      (_: VertexId, attr: Boolean, msg: Boolean) => attr || msg,
      triplet => if (triplet.srcAttr && !triplet.dstAttr) Iterator((triplet.dstId, true)) else Iterator.empty,
      (a: Boolean, b: Boolean) => a || b
    )
    result.vertices.filter(_._2).map(_._1.toInt).collect().toSet
  }
}
