package repro.core

import org.apache.commons.math3.distribution.NormalDistribution
import org.apache.commons.math3.stat.inference.ChiSquareTest
import repro.diffusion.DiffusionModel
import repro.graph.CompactGraph
import repro.util.Rng

/** The mRR sampler as it was before roots were drawn by Floyd's algorithm
  * and before the reverse BFS did constant work at shared-probability nodes,
  * kept as a reference that a changed sampler is compared with in
  * distribution (`SamplerEquivalence`). Roots: rejection while 4k < n_i, a
  * partial Fisher–Yates shuffle of `inactiveNodes` otherwise. Then the
  * reverse BFS that examines every in-edge of every visited node, whose
  * work is the number of edges examined. It makes the same draws as that
  * sampler, so its sets and work are byte-identical to it.
  */
object ReferenceSampler {

  def sampleOne(g: CompactGraph, inactive: Array[Boolean], inactiveNodes: Array[Int],
                etaI: Int, model: DiffusionModel, vanillaRoots: Boolean,
                seedBase: Long, idx: Long): (Array[Int], Int) = {
    val rng = new Rng.Stream(seedBase, idx)
    val nI = inactiveNodes.length
    val k = if (vanillaRoots) 1 else MRRSampler.rootSize(nI, etaI, rng.nextDouble())
    val inSet = new Array[Boolean](g.n)
    val set = scala.collection.mutable.ArrayBuffer.empty[Int]
    def add(v: Int): Unit = { inSet(v) = true; set += v }

    if (k.toLong * 4 < nI) {
      while (set.length < k) {
        val v = inactiveNodes(rng.nextInt(nI))
        if (!inSet(v)) add(v)
      }
    } else {
      val perm = inactiveNodes.clone()
      (0 until k).foreach { i =>
        val j = i + rng.nextInt(nI - i)
        val tmp = perm(i); perm(i) = perm(j); perm(j) = tmp
        add(perm(i))
      }
    }

    var work = 0
    var head = 0
    while (head < set.length) {
      val v = set(head)
      head += 1
      val (from, until) = (g.inOff(v), g.inOff(v + 1))
      if (model == DiffusionModel.IC) {
        for (i <- from until until) {
          val e = g.inEdge(i)
          val u = g.srcs(e)
          if (inactive(u)) {
            work += 1
            if (!inSet(u) && rng.nextDouble() < g.probs(e)) add(u)
          }
        }
      } else {
        // LT: one live in-edge, drawn over {inactive in-edges} ∪ {none}.
        work += until - from
        var sumAll, sumInactive = 0.0
        for (i <- from until until) {
          val e = g.inEdge(i)
          sumAll += g.probs(e)
          if (inactive(g.srcs(e))) sumInactive += g.probs(e)
        }
        val denom = sumInactive + math.max(0.0, 1.0 - sumAll)
        if (denom > 0 && sumInactive > 0) {
          val draw = rng.nextDouble() * denom
          var acc = 0.0
          var chosen = -1
          var i = from
          while (chosen < 0 && i < until) {
            val e = g.inEdge(i)
            if (inactive(g.srcs(e))) {
              acc += g.probs(e)
              if (draw < acc) chosen = g.srcs(e)
            }
            i += 1
          }
          if (chosen >= 0 && !inSet(chosen)) add(chosen)
        }
      }
    }
    (set.toArray, work)
  }
}

/** Two-sample checks that two pools of (m)RR-sets over node ids
  * `0 until n` come from the same distribution:
  *  - set sizes, by a chi-square test of homogeneity over size bins that
  *    hold at least `MinBin` sets of the two pools together;
  *  - how often each of the `TopNodes` most-covered nodes (in the two pools
  *    together) is covered, by two-proportion z-tests with a Bonferroni
  *    correction.
  * Each returns the failures found at family level `alpha`, so a caller can
  * print all of them.
  */
object SamplerEquivalence {

  val MinBin = 40
  val TopNodes = 20

  def sizeFailures(a: Seq[Array[Int]], b: Seq[Array[Int]], alpha: Double): Seq[String] = {
    val (sa, sb) = (a.map(_.length), b.map(_.length))
    val hist = (sa ++ sb).groupBy(identity).view.mapValues(_.size).toMap
    // Bin upper bounds: consecutive sizes merged until a bin holds MinBin
    // sets; a short last bin joins the one before it.
    val bounds = scala.collection.mutable.ArrayBuffer.empty[Int]
    var held = 0
    hist.keys.toSeq.sorted.foreach { size =>
      held += hist(size)
      if (held >= MinBin) { bounds += size; held = 0 }
    }
    if (held > 0 && bounds.nonEmpty) bounds(bounds.length - 1) = Int.MaxValue
    if (bounds.length < 2) return Nil // one bin: nothing to compare
    def binned(sizes: Seq[Int]): Array[Long] = {
      val c = new Array[Long](bounds.length)
      sizes.foreach { s => c(bounds.indexWhere(s <= _)) += 1 }
      c
    }
    val p = new ChiSquareTest().chiSquareTestDataSetsComparison(binned(sa), binned(sb))
    if (p < alpha) Seq(f"set sizes differ: p = $p%.2e over ${bounds.length} bins, " +
                       f"mean ${sa.sum.toDouble / sa.length}%.3f vs ${sb.sum.toDouble / sb.length}%.3f")
    else Nil
  }

  def coverageFailures(n: Int, a: Seq[Array[Int]], b: Seq[Array[Int]],
                       alpha: Double): Seq[String] = {
    val (ca, cb) = (Coverage.counts(n, a), Coverage.counts(n, b))
    val (na, nb) = (a.length.toDouble, b.length.toDouble)
    val zMax = new NormalDistribution().inverseCumulativeProbability(1 - alpha / (2 * TopNodes))
    (0 until n).sortBy(v => (-(ca(v) + cb(v)), v)).take(TopNodes).flatMap { v =>
      val (pa, pb) = (ca(v) / na, cb(v) / nb)
      val pooled = (ca(v) + cb(v)) / (na + nb)
      val se = math.sqrt(pooled * (1 - pooled) * (1 / na + 1 / nb))
      val z = if (se == 0) 0.0 else (pa - pb) / se
      if (math.abs(z) > zMax) Some(f"node $v covered by $pa%.4f vs $pb%.4f of the sets: z = $z%.2f")
      else None
    }
  }
}
