package repro.graph

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.XXH64

/** Synthetic social-network generators.
  *
  * The paper evaluates on four SNAP datasets (Table 2); the container is
  * offline, so we substitute Chung-Lu style power-law graphs matched on the
  * paper's shape parameters (directedness, average degree, heavy-tailed
  * degrees, large LWCC) at a reduced default scale — see DESIGN.md §5.
  *
  * Generation is one primitive pass on the driver: candidate endpoints are
  * drawn by hash-based inverse-CDF zipf sampling (deterministic per candidate
  * id), self-loops dropped, duplicates removed, and arcs numbered in
  * (src, dst) order, so the graph depends only on (name, scale, seed).
  */
object GraphGen {

  /** Datasets mirroring Table 2 at bench scale. `targetEdges` counts directed
    * arcs (undirected edges count twice). `community` is the clique size of
    * the community layer: real social/collaboration networks owe their small
    * per-seed cascades under weighted cascade to exactly this local density
    * (cliques inflate in-degrees, which deflates p = 1/indeg), so the
    * community layer is what keeps seed counts at the paper's scale.
    */
  final case class DatasetSpec(name: String, n: Int, targetEdges: Int,
                               directed: Boolean, alpha: Double, community: Int)

  /** Default dataset grid (multiplied by REPRO_SCALE if set): NetHEPT at the
    * paper's full scale, the SNAP networks at 1/10–1/200 node counts with the
    * paper's edge density (arcs per node) preserved — see DESIGN.md §5.
    */
  val datasets: Seq[DatasetSpec] = Seq(
    DatasetSpec("nethept", 15200, 63500, directed = false, alpha = 2.5, community = 4),
    DatasetSpec("epinions", 13200, 88400, directed = true, alpha = 3.0, community = 5),
    DatasetSpec("youtube", 22600, 119500, directed = false, alpha = 2.8, community = 4),
    DatasetSpec("livejournal", 24250, 345000, directed = true, alpha = 3.5, community = 8),
  )

  def datasetSpec(name: String): DatasetSpec =
    datasets.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown dataset '$name'; known: ${datasets.map(_.name).mkString(", ")}"))

  /** Uniform [0,1) deterministic in (id, salt): the top 53 bits of Spark
    * SQL's `xxhash64(id, salt)`, which hashes its arguments in turn from
    * seed 42.
    */
  private def hashU(id: Long, salt: Long): Double =
    (XXH64.hashLong(salt, XXH64.hashLong(id, 42L)) >>> 11).toDouble / 9007199254740992.0

  /** Long-range arcs as keys src·n + dst, ascending: Chung-Lu style, one
    * endpoint drawn from rank weights w_k ∝ (k+1)^(−β) with β = 1/(alpha−1)
    * (a degree tail ≈ alpha, with the top hub's edge share bounded, unlike
    * ranks drawn ∝ k^(−alpha), which hand one node most edges) by the inverse
    * CDF of the truncated power law over [0, n), the other uniform (keeps the
    * giant weakly-connected component large; zipf×zipf leaves most nodes
    * isolated). Of the distinct non-loop pairs among `4·target` candidates,
    * the `target` lexicographically smallest are kept; undirected pairs are
    * normalised to src < dst and then mirrored.
    */
  private def powerLawArcs(n: Int, target: Int, alpha: Double, seed: Long,
                           undirected: Boolean): Array[Long] = {
    val beta = 1.0 / (alpha - 1.0)
    require(beta < 1.0, s"alpha=$alpha must exceed 2 for a normalizable rank weight")
    val e = 1.0 - beta
    val top = math.pow(n.toDouble + 1.0, e) - 1.0
    val candidates = math.max(8, target * 4)
    val keys = new Array[Long](candidates)
    var len = 0
    var id = 0
    while (id < candidates) {
      // StrictMath.pow is what Spark SQL's `pow` computes.
      val zipf = (StrictMath.pow(hashU(id, seed) * top + 1.0, 1.0 / e) - 1.0).toLong
      val a = math.min(n - 1L, math.max(0L, zipf))
      val b = (hashU(id, seed + 1) * n).toLong
      if (a != b) {
        keys(len) = if (undirected) math.min(a, b) * n + math.max(a, b) else a * n + b
        len += 1
      }
      id += 1
    }
    val kept = math.min(target, sortDistinct(keys, len))
    if (!undirected) java.util.Arrays.copyOf(keys, kept)
    else {
      val arcs = java.util.Arrays.copyOf(keys, 2 * kept)
      var i = 0
      while (i < kept) { arcs(kept + i) = keys(i) % n * n + keys(i) / n; i += 1 }
      arcs
    }
  }

  /** Community layer: nodes are grouped into consecutive cliques of size `s`
    * and fully wired inside each clique (both arc directions), as keys
    * src·n + dst.
    */
  private def communityArcs(n: Int, s: Int): Array[Long] = {
    val arcs = Array.newBuilder[Long]
    var u = 0
    while (u < n) {
      val first = u / s * s
      var v = first
      while (v < math.min(n, first + s)) {
        if (v != u) arcs += u.toLong * n + v
        v += 1
      }
      u += 1
    }
    arcs.result()
  }

  /** Sorts `keys(0 until len)` and moves its distinct values to the front, in
    * ascending order; returns their count.
    */
  private def sortDistinct(keys: Array[Long], len: Int): Int = {
    java.util.Arrays.sort(keys, 0, len)
    var distinct = 0
    var i = 0
    while (i < len) {
      if (distinct == 0 || keys(i) != keys(distinct - 1)) { keys(distinct) = keys(i); distinct += 1 }
      i += 1
    }
    distinct
  }

  /** Generate a dataset as a weighted-cascade CompactGraph: community cliques
    * plus power-law long-range edges up to the target arc count. `scale`
    * shrinks or grows both n and the arc target, and must be positive. Edge
    * ids follow (src, dst) order.
    */
  def dataset(name: String, scale: Double = 1.0, seed: Long = 42): CompactGraph = {
    require(scale > 0, s"scale = $scale must be positive")
    val spec = datasetSpec(name)
    val n = math.max(16, (spec.n * scale).toInt)
    val targetArcs = math.max(16, (spec.targetEdges * scale).toInt)
    val cliqueArcCount = n.toLong * (spec.community - 1) // ≈, ignoring the tail clique
    val longRangeArcs = math.max(0L, targetArcs - cliqueArcCount)
    val longTarget = (if (spec.directed) longRangeArcs else longRangeArcs / 2).toInt
    val arcs = communityArcs(n, spec.community) ++
      powerLawArcs(n, longTarget, spec.alpha, seed, undirected = !spec.directed)
    CompactGraph.weightedCascade(n, arcs, sortDistinct(arcs, arcs.length))
  }

  /** The form with an unused `spark`, which perfbench's harness calls; it
    * goes at the next benchmark change.
    */
  def dataset(spark: SparkSession, name: String, scale: Double, seed: Long): CompactGraph =
    dataset(name, scale, seed)

  // ---- deterministic fixture graphs for tests --------------------------------

  /** The Example 2.3 / Figure 2 graph: 4 nodes, 4 edges, 4 equiprobable
    * realizations. E[I(v1)] = 2.75; truncated spreads at η=2 are
    * (1.75, 2, 2, 1) for (v1..v4). Node vi maps to id i-1.
    */
  def fig2: CompactGraph = CompactGraph.fromEdges(4, Seq(
    (0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0)))

  /** Directed path 0 -> 1 -> ... -> n-1, each edge probability p. */
  def line(n: Int, p: Double): CompactGraph =
    CompactGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1, p)))

  /** Out-star: center 0 -> each leaf, probability p. */
  def star(n: Int, p: Double): CompactGraph =
    CompactGraph.fromEdges(n, (1 until n).map(i => (0, i, p)))

  /** Two disjoint directed cliques of size s each, probability p. */
  def twoCliques(s: Int, p: Double): CompactGraph = {
    val edges = for {
      block <- 0 to 1; i <- 0 until s; j <- 0 until s if i != j
    } yield (block * s + i, block * s + j, p)
    CompactGraph.fromEdges(2 * s, edges)
  }
}
