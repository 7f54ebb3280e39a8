package repro.diffusion

import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph
import repro.graph.CompactGraphOps._

/** Test oracle for influence spread: exact enumeration over the realization
  * space (tiny graphs, ground truth for the estimators), and RDD-distributed
  * Monte-Carlo estimation.
  *
  * Exact enumeration covers both models: IC iterates edge-status bitmasks
  * (2^m realizations, §2.1), LT iterates live-edge choice vectors
  * (∏_v (indeg(v)+1) realizations).
  */
object Spread {

  /** Reachable-set size from S given a live-edge predicate. */
  private def reach(g: CompactGraph, seeds: Array[Int], liveInto: Int => Boolean): Int = {
    val visited = new Array[Boolean](g.n)
    val queue = new java.util.ArrayDeque[Integer]()
    var count = 0
    seeds.foreach { s =>
      if (!visited(s)) { visited(s) = true; queue.add(s); count += 1 }
    }
    while (!queue.isEmpty) {
      val u = queue.poll().intValue()
      g.foreachOutEdge(u) { e =>
        val v = g.dsts(e)
        if (!visited(v) && liveInto(e)) { visited(v) = true; queue.add(v); count += 1 }
      }
    }
    count
  }

  /** Full spread distribution of seed set S: pairs (probability, I_φ(S)),
    * one per realization (not grouped). Guarded to small graphs.
    */
  def exactSpreadDistribution(g: CompactGraph, seeds: Array[Int],
                              model: DiffusionModel): Seq[(Double, Int)] = model match {
    case DiffusionModel.IC =>
      require(g.m <= 20, s"IC enumeration is 2^m; m=${g.m} too large")
      (0 until (1 << g.m)).map { mask =>
        var prob = 1.0
        var e = 0
        while (e < g.m) {
          prob *= (if ((mask & (1 << e)) != 0) g.probs(e) else 1.0 - g.probs(e))
          e += 1
        }
        (prob, reach(g, seeds, e => (mask & (1 << e)) != 0))
      }.filter(_._1 > 0.0)
    case DiffusionModel.LT =>
      // Mixed-radix counter over per-node choices: 0..indeg-1 = that in-edge,
      // indeg = "none".
      val radix = Array.tabulate(g.n)(v => g.inDeg(v) + 1)
      val total = radix.map(_.toLong).product
      require(total <= 2_000_000L, s"LT enumeration space $total too large")
      val choice = new Array[Int](g.n)
      val results = Seq.newBuilder[(Double, Int)]
      var iter = 0L
      while (iter < total) {
        var prob = 1.0
        val chosenEdge = new Array[Int](g.n)
        var v = 0
        while (v < g.n && prob > 0.0) {
          val c = choice(v)
          if (c < g.inDeg(v)) {
            val e = g.inEdge(g.inOff(v) + c)
            chosenEdge(v) = e
            prob *= g.probs(e)
          } else {
            chosenEdge(v) = -1
            prob *= math.max(0.0, 1.0 - g.inEdgesOf(v).map(g.probs).sum)
          }
          v += 1
        }
        if (prob > 0.0) results += ((prob, reach(g, seeds, e => chosenEdge(g.dsts(e)) == e)))
        // increment mixed-radix counter
        var d = 0
        var carry = true
        while (carry && d < g.n) {
          choice(d) += 1
          if (choice(d) == radix(d)) { choice(d) = 0; d += 1 } else carry = false
        }
        iter += 1
      }
      results.result()
  }

  /** Exact E[I(S)] by enumeration. */
  def exactExpectedSpread(g: CompactGraph, seeds: Array[Int], model: DiffusionModel): Double =
    exactSpreadDistribution(g, seeds, model).map { case (p, x) => p * x }.sum

  /** Exact E[Γ(S)] = E[min(I(S), η)] by enumeration (Definition 2.2). */
  def exactExpectedTruncated(g: CompactGraph, seeds: Array[Int], eta: Int,
                             model: DiffusionModel): Double =
    exactSpreadDistribution(g, seeds, model).map { case (p, x) => p * math.min(x, eta) }.sum

  /** Probability that a uniform k-subset of V avoids a fixed x-subset:
    * p(x,k) = C(n−x,k)/C(n,k) = ∏_{i<k} (n−x−i)/(n−i).
    */
  def avoidProb(n: Int, x: Int, k: Int): Double = {
    var p = 1.0
    var i = 0
    while (i < k) {
      if (n - x - i <= 0) return 0.0
      p *= (n - x - i).toDouble / (n - i)
      i += 1
    }
    p
  }

  /** Exact E[Γ̃(S)] of the mRR binary estimator (§3.3): roots of randomized
    * size k = ⌊n/η⌋ (+1 w.p. frac) chosen uniformly; Γ̃ = η iff the root set
    * intersects S's forward-reachable set. Used to validate Theorem 3.3.
    */
  def exactTildeGamma(g: CompactGraph, seeds: Array[Int], eta: Int,
                      model: DiffusionModel): Double = {
    val n = g.n
    val kLo = n / eta
    val r = n.toDouble / eta - kLo
    exactSpreadDistribution(g, seeds, model).map { case (p, x) =>
      val pAvoid = r * avoidProb(n, x, math.min(kLo + 1, n)) +
        (1.0 - r) * avoidProb(n, x, kLo)
      p * eta * (1.0 - pAvoid)
    }.sum
  }

  /** RDD-distributed Monte-Carlo E[I(S)]: trials fan out over the cluster,
    * each evaluating a seeded realization against the broadcast graph.
    */
  def mcSpread(spark: SparkSession, g: CompactGraph, seeds: Array[Int],
               model: DiffusionModel, trials: Int, seed0: Long): Double = {
    val sc = spark.sparkContext
    val bg = sc.broadcast(g)
    val total = sc
      .range(0, trials)
      .map(t => new Realization(bg.value, model, seed0 + t).spread(seeds).toLong)
      .sum()
    total / trials
  }
}
