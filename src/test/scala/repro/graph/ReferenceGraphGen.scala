package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The Spark SQL pipeline that generated the datasets before `GraphGen.dataset`
  * moved to the driver, kept as the reference it is checked against. It
  * computes the same edge set and weighted-cascade probabilities. The
  * `collect` order of its hash aggregate depends on
  * `spark.sql.shuffle.partitions`, but `CompactGraph.fromEdges` numbers edges
  * in (src, dst) order, so both build the same CSR.
  */
object ReferenceGraphGen {

  /** Uniform [0,1) column deterministic in (`col` row value, salt). */
  private def hashU(col: org.apache.spark.sql.Column, salt: Long) =
    shiftrightunsigned(xxhash64(col, lit(salt)), 11).cast("double") / lit(9007199254740992.0)

  /** Node id drawn from Chung-Lu rank weights w_k ∝ (k+1)^(−β) with
    * β = 1/(alpha−1), by the inverse CDF of the truncated power law over
    * ranks [0, n).
    */
  private def zipfNode(col: org.apache.spark.sql.Column, n: Int, alpha: Double, salt: Long) = {
    val beta = 1.0 / (alpha - 1.0)
    require(beta < 1.0, s"alpha=$alpha must exceed 2 for a normalizable rank weight")
    val e = 1.0 - beta
    val top = math.pow(n.toDouble + 1.0, e) - 1.0
    least(lit(n - 1),
      greatest(lit(0L),
        (pow(hashU(col, salt) * top + 1.0, lit(1.0 / e)) - 1.0).cast("long")))
  }

  /** Directed edge list (src, dst) with power-law in/out degrees: of the
    * distinct non-loop pairs among `4·targetEdges` candidates, the
    * `targetEdges` lexicographically smallest (mirrored if `undirected`).
    */
  def powerLawEdges(spark: SparkSession, n: Int, targetEdges: Int, alpha: Double,
                    seed: Long, undirected: Boolean): DataFrame = {
    val candidates = spark.range(math.max(8L, targetEdges * 4L)).select(
      zipfNode(col("id"), n, alpha, seed) as "a",
      (hashU(col("id"), seed + 1) * n).cast("long") as "b",
    ).where(col("a") =!= col("b"))
    val base =
      if (undirected)
        candidates
          .select(least(col("a"), col("b")) as "src", greatest(col("a"), col("b")) as "dst")
      else candidates.select(col("a") as "src", col("b") as "dst")
    val deduped = base.distinct().orderBy("src", "dst").limit(targetEdges)
    if (undirected) deduped.union(deduped.select(col("dst") as "src", col("src") as "dst"))
    else deduped
  }

  /** Community layer: consecutive cliques of size `s`, fully wired (both arc
    * directions), built by a self-join on community id.
    */
  def communityEdges(spark: SparkSession, n: Int, s: Int): DataFrame = {
    val nodes = spark.range(n).select(
      col("id") as "node", (col("id") / s).cast("long") as "comm")
    val a = nodes.select(col("node") as "src", col("comm") as "c1")
    val b = nodes.select(col("node") as "dst", col("comm") as "c2")
    a.join(b, col("c1") === col("c2") && col("src") =!= col("dst"))
      .select("src", "dst")
  }

  /** Collect a (src, dst) DataFrame and compile to CSR with weighted-cascade
    * probabilities.
    */
  def fromDF(df: DataFrame, n: Int): CompactGraph = {
    val edges = df
      .selectExpr("cast(src as int) src", "cast(dst as int) dst")
      .collect()
      .map(r => (r.getInt(0), r.getInt(1)))
      .toSeq
    CompactGraph.weightedCascade(n, edges)
  }

  /** `GraphGen.dataset` as the DataFrame pipeline computes it. */
  def dataset(spark: SparkSession, name: String, scale: Double = 1.0, seed: Long = 42): CompactGraph = {
    val spec = GraphGen.datasetSpec(name)
    val n = math.max(16, (spec.n * scale).toInt)
    val targetArcs = math.max(16, (spec.targetEdges * scale).toInt)
    val cliqueArcs = communityEdges(spark, n, spec.community)
    val cliqueArcCount = n.toLong * (spec.community - 1)
    val longRangeArcs = math.max(0L, targetArcs - cliqueArcCount)
    val longTarget = (if (spec.directed) longRangeArcs else longRangeArcs / 2).toInt
    val edges =
      if (longTarget == 0) cliqueArcs
      else cliqueArcs.union(
        powerLawEdges(spark, n, longTarget, spec.alpha, seed, undirected = !spec.directed))
    fromDF(edges.distinct(), n)
  }
}
