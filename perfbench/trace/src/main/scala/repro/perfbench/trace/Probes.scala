package repro.perfbench.trace

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.baselines.Ateuc
import repro.core._
import repro.diffusion.DiffusionModel
import repro.graph.CompactGraph
import repro.perfbench.SparkCounters

/** The residual state one selection ran on, copied before the observation
  * changed it, so a probe can replay the selection's exact inputs.
  */
final case class RoundInputs(mask: Array[Boolean], nodes: Array[Int], etaI: Int,
                             model: DiffusionModel, vanillaRoots: Boolean, seedBase: Long) {
  def ctx(spark: SparkSession, bg: Broadcast[CompactGraph]): MRRSamplerCtx =
    new MRRSamplerCtx(spark, bg, mask, nodes, etaI, model, vanillaRoots, seedBase)
}

/** Sampler layer: the round's set count through the driver path and through
  * the RDD fan-out, which must give byte-identical pools.
  */
object SamplerProbe {

  final case class Replay(pool: IndexedSeq[Array[Int]], localS: Double, sparkS: Double,
                          edges: Long, nodes: Long, identical: Boolean)

  def replay(spark: SparkSession, bg: Broadcast[CompactGraph], in: RoundInputs,
             count: Int, tag: String): Replay = {
    val local = in.ctx(spark, bg)
    val t0 = System.nanoTime()
    val pool = local.generateLocal(0L, count)
    val t1 = System.nanoTime()
    val viaSpark = SparkCounters.tagged(spark.sparkContext, tag)(
      in.ctx(spark, bg).generateSpark(0L, count))
    val t2 = System.nanoTime()
    val identical = pool.length == viaSpark.length &&
      pool.indices.forall(i => java.util.Arrays.equals(pool(i), viaSpark(i)))
    Replay(pool, (t1 - t0) / 1e9, (t2 - t1) / 1e9, local.totalWork,
           pool.iterator.map(_.length.toLong).sum, identical)
  }
}

/** Coverage layer: the selector's coverage step on the replayed pool at every
  * pool size the selection's doubling loop went through.
  */
object CoverageProbe {

  /** Seconds spent counting (`counts` + `topNode`) and in greedy coverage,
    * pool entries scanned, and the choice made on the final pool.
    */
  final case class Replay(countS: Double, greedyS: Double, entries: Long, choice: Seq[Int])

  /** Pool sizes of TRIM's and TRIM-B's doubling loop, and the iteration cap T. */
  def trimSizes(selector: Selector, nI: Int, etaI: Int, eps: Double,
                iterations: Int): (Seq[Long], Int) = {
    val sch = selector match {
      case TrimSelector => Trim.schedule(nI, etaI, eps, math.log(nI.toDouble))
      case AdaptImSelector => Trim.schedule(nI, nI, eps, math.log(nI.toDouble))
      case TrimBSelector(b) =>
        val bEff = math.min(b, nI)
        Trim.schedule(nI, etaI, eps, TrimB.lnChoose(nI, bEff), TrimB.rho(bEff), bEff)
    }
    val cap = math.ceil(sch.thetaMax).toLong
    val sizes = Iterator.iterate(math.ceil(sch.thetaO).toLong)(s => math.min(s * 2, cap))
      .take(iterations).toSeq
    (sizes, sch.T)
  }

  /** Pool sizes of ATEUC's doubling loop. */
  def ateucSizes(iterations: Int): Seq[Long] =
    Iterator.iterate(Ateuc.InitialTheta.toLong)(_ * 2)
      .take(math.min(iterations, Ateuc.MaxIterations)).toSeq

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def trim(selector: Selector, n: Int, nI: Int, mask: Array[Boolean],
           pool: IndexedSeq[Array[Int]], sizes: Seq[Long]): Replay = {
    var countS, greedyS = 0.0
    var entries = 0L
    var choice: Seq[Int] = Nil
    sizes.foreach { size =>
      val prefix = pool.slice(0, size.toInt)
      entries += prefix.iterator.map(_.length.toLong).sum
      selector match {
        case TrimBSelector(b) =>
          val ((batch, _), s) = timed(Coverage.greedyCover(n, prefix, math.min(b, nI)))
          greedyS += s
          choice = batch.toSeq
        case TrimSelector | AdaptImSelector =>
          val ((top, _), s) = timed(Coverage.topNode(Coverage.counts(n, prefix), mask))
          countS += s
          choice = Seq(top)
      }
    }
    Replay(countS, greedyS, entries, choice)
  }

  def ateuc(n: Int, pool: IndexedSeq[Array[Int]], sizes: Seq[Long], picks: Int): Replay = {
    var greedyS = 0.0
    var entries = 0L
    var choice: Seq[Int] = Nil
    sizes.foreach { size =>
      val prefix = pool.slice(0, size.toInt)
      entries += prefix.iterator.map(_.length.toLong).sum
      val (seq, s) = timed(Coverage.greedySequence(n, prefix, n))
      greedyS += s
      choice = seq.take(picks).map(_._1)
    }
    Replay(0.0, greedyS, entries, choice)
  }
}
