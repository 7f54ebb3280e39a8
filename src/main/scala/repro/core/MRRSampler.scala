package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.diffusion.DiffusionModel
import repro.graph.CompactGraph
import repro.util.Rng

/** Multi-root reverse reachable (mRR) set sampling (§3.3).
  *
  * A random mRR-set is generated by (1) drawing a root set K of randomized
  * size k = ⌊n_i/η_i⌋ (+1 with probability frac(n_i/η_i)) uniformly without
  * replacement from the residual nodes, and (2) a stochastic reverse BFS from
  * K restricted to the residual graph. With `vanillaRoots = true` the sampler
  * degenerates to single-root RR-sets (k = 1), which is what the ATEUC and
  * AdaptIM baselines consume.
  *
  * Each set is a pure function of `(seedBase, sampleIndex)`, so the driver
  * path (cheap for the small batches inside the adaptive inner loop) and the
  * RDD fan-out path (large batches) produce byte-identical results — tested.
  */
object MRRSampler {

  /** Threshold above which generation fans out over the cluster. */
  val SparkBatchThreshold = 4096

  /** Randomized root size (Theorem 3.3's rounding): ⌊n/η⌋ or ⌈n/η⌉. */
  def rootSize(nI: Int, etaI: Int, u: Double): Int = {
    val ratio = nI.toDouble / etaI
    val kLo = ratio.toInt
    val k = if (u < ratio - kLo) kLo + 1 else kLo
    math.min(math.max(1, k), nI)
  }

  /** One mRR-set: node array (unsorted) plus the number of edges examined
    * (the work measure of Lemma 3.8).
    */
  def sampleOne(g: CompactGraph, inactive: Array[Boolean], inactiveNodes: Array[Int],
                etaI: Int, model: DiffusionModel, vanillaRoots: Boolean,
                seedBase: Long, idx: Long): (Array[Int], Int) = {
    val rng = new Rng.Stream(seedBase, idx)
    val nI = inactiveNodes.length
    val k = if (vanillaRoots) 1 else rootSize(nI, etaI, rng.nextDouble())

    val visited = new java.util.HashSet[Integer]()
    val queue = new java.util.ArrayDeque[Integer]()
    val out = Array.newBuilder[Int]

    // Roots: k distinct uniform draws from the residual nodes. Rejection is
    // fine for small k; for k close to n_i a partial Fisher-Yates avoids
    // quadratic rejection.
    if (k.toLong * 4 < nI) {
      var picked = 0
      while (picked < k) {
        val v = inactiveNodes(rng.nextInt(nI))
        if (visited.add(v)) { queue.add(v); out += v; picked += 1 }
      }
    } else {
      val pool = java.util.Arrays.copyOf(inactiveNodes, nI)
      var i = 0
      while (i < k) {
        val j = i + rng.nextInt(nI - i)
        val tmp = pool(i); pool(i) = pool(j); pool(j) = tmp
        visited.add(pool(i)); queue.add(pool(i)); out += pool(i)
        i += 1
      }
    }

    var work = 0
    while (!queue.isEmpty) {
      val v = queue.poll().intValue()
      model match {
        case DiffusionModel.IC =>
          // Each in-edge from an inactive source is live independently.
          g.foreachInEdge(v) { e =>
            val u = g.srcs(e)
            if (inactive(u)) {
              work += 1
              if (!visited.contains(u) && rng.nextDouble() < g.probs(e)) {
                visited.add(u); queue.add(u); out += u
              }
            }
          }
        case DiffusionModel.LT =>
          // v picks at most one live in-edge. Conditioned on v being inactive,
          // edges from active sources are excluded and the draw renormalizes
          // over {inactive in-edges} ∪ {none}: denominator
          // 1 − Σ_{active u} p(u,v) = Σ_{inactive u} p(u,v) + (1 − Σ_all p).
          var sumAll = 0.0
          var sumInactive = 0.0
          g.foreachInEdge(v) { e =>
            work += 1
            sumAll += g.probs(e)
            if (inactive(g.srcs(e))) sumInactive += g.probs(e)
          }
          val noneProb = math.max(0.0, 1.0 - sumAll)
          val denom = sumInactive + noneProb
          if (denom > 0 && sumInactive > 0) {
            val draw = rng.nextDouble() * denom
            var acc = 0.0
            var chosen = -1
            g.foreachInEdge(v) { e =>
              if (chosen < 0 && inactive(g.srcs(e))) {
                acc += g.probs(e)
                if (draw < acc) chosen = g.srcs(e)
              }
            }
            if (chosen >= 0 && !visited.contains(chosen)) {
              visited.add(chosen); queue.add(chosen); out += chosen
            }
          }
      }
    }
    (out.result(), work)
  }
}

/** Per-round sampling context and sample pool: fixes the residual mask,
  * target and model so repeated doubling rounds share one broadcast, and
  * holds the sets drawn so far, set i being stream index i. Tracks
  * cumulative work for the efficiency instrumentation.
  */
final class MRRSamplerCtx(
    spark: SparkSession,
    bg: Broadcast[CompactGraph],
    val inactive: Array[Boolean],
    val inactiveNodes: Array[Int],
    val etaI: Int,
    val model: DiffusionModel,
    val vanillaRoots: Boolean,
    val seedBase: Long
) {
  private val pool = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
  var totalWork: Long = 0L

  def nI: Int = inactiveNodes.length

  /** The sets drawn so far, in stream order. */
  def sets: scala.collection.IndexedSeq[Array[Int]] = pool

  /** Number of sets drawn so far. */
  def totalSamples: Long = pool.length

  /** Draw stream indices [totalSamples, size) into the pool; no-op if the
    * pool already holds `size` sets.
    */
  def growTo(size: Long): Unit = {
    require(size <= Int.MaxValue, s"sample pool of $size sets exceeds Int range")
    val count = size.toInt - pool.length
    if (count >= MRRSampler.SparkBatchThreshold) pool ++= generateSpark(pool.length, count)
    else if (count > 0) pool ++= generateLocal(pool.length, count)
  }

  def generateLocal(from: Long, count: Int): IndexedSeq[Array[Int]] = {
    val g = bg.value
    (0 until count).map { i =>
      val (nodes, work) = MRRSampler.sampleOne(
        g, inactive, inactiveNodes, etaI, model, vanillaRoots, seedBase, from + i)
      totalWork += work
      nodes
    }
  }

  /** RDD fan-out: every task pulls the broadcast graph and generates its
    * slice of the sample-index range.
    */
  def generateSpark(from: Long, count: Int): IndexedSeq[Array[Int]] = {
    val sc = spark.sparkContext
    val (inactiveB, nodesB) = (sc.broadcast(inactive), sc.broadcast(inactiveNodes))
    val (etaI0, model0, vanilla0, seed0) = (etaI, model, vanillaRoots, seedBase)
    val g0 = bg
    val results = sc
      .range(from, from + count, numSlices = spark.sparkContext.defaultParallelism)
      .map { idx =>
        val (nodes, work) = MRRSampler.sampleOne(
          g0.value, inactiveB.value, nodesB.value, etaI0, model0, vanilla0, seed0, idx)
        (idx, nodes, work.toLong)
      }
      .collect()
    inactiveB.destroy(); nodesB.destroy()
    totalWork += results.map(_._3).sum
    // Restore stream order so driver/spark paths are byte-identical.
    results.sortBy(_._1).map(_._2).toIndexedSeq
  }
}
