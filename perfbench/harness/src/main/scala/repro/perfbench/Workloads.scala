package repro.perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.baselines.Ateuc
import repro.core.{AdaptImSelector, Asti, Selector, TrimBSelector, TrimSelector}
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.CompactGraph

/** What set-up hands to every solve. */
final case class Env(spark: SparkSession, graph: CompactGraph, bg: Broadcast[CompactGraph])

/** What one solve produced: the seed set, the sets it sampled, how many of
  * its (seed set, realization) pairs reached η, and every failed check.
  */
final case class Outcome(seeds: Vector[Int], samples: Long, pairs: Int, reachedPairs: Int,
                         problems: Seq[String]) {
  def ok: Boolean = problems.isEmpty
}

object Outcome {
  def failed(problem: String): Outcome = Outcome(Vector.empty, 0L, 0, 0, Seq(problem))
}

/** One unit of timed work. Its inputs are fixed when the workload's solve
  * list is made from the seed argument.
  */
sealed trait Solve {
  def label: String
  def model: DiffusionModel
  def etaFrac: Double
  def run(env: Env): Outcome
  def eta(g: CompactGraph): Int = math.max(1, (g.n * etaFrac).toInt)
}

/** One `Asti.run` on one realization, checked against that realization. */
final case class AdaptiveSolve(index: Int, model: DiffusionModel, selector: Selector,
                               etaFrac: Double, eps: Double, realizationSeed: Long,
                               selectorSeed: Long) extends Solve {
  def label: String = s"${selector.name}/${model.name}#$index"

  def run(env: Env): Outcome = {
    val eta = this.eta(env.graph)
    val r = Asti.run(env.spark, env.bg, eta, eps, selector, model, realizationSeed, selectorSeed)
    Outcome(r.seeds, r.samples, 1, if (r.finalSpread >= eta) 1 else 0,
            Workloads.checkAdaptive(env.graph, this, r.seeds, r.finalSpread))
  }
}

/** One `Ateuc.select` plus the evaluation of its seed set on the cell's
  * realizations (Table 3's feasibility).
  */
final case class AteucSolve(index: Int, model: DiffusionModel, etaFrac: Double,
                            selectionSeed: Long, realizationSeeds: IndexedSeq[Long]) extends Solve {
  def label: String = s"ATEUC/${model.name}/$etaFrac#$index"

  def run(env: Env): Outcome = {
    val eta = this.eta(env.graph)
    val a = Ateuc.select(env.spark, env.bg, eta, model, selectionSeed)
    val reached = realizationSeeds.count(rs => new Realization(env.graph, model, rs).spread(a.seeds) >= eta)
    Outcome(a.seeds.toVector, a.samples, realizationSeeds.size, reached,
            Workloads.checkSeedSet(env.graph, a.seeds.toVector))
  }
}

/** A named, fixed list of solves. The graph keeps the repository's graph
  * seed; only the realization and selector seeds follow the seed argument.
  */
final case class Workload(name: String, dataset: String, inputs: Seq[(String, String)],
                          solves: Long => IndexedSeq[Solve])

object Workloads {
  val GraphSeed = 42L
  val Scale = 1.0
  val Eps = 0.5

  /** Table 3's large-η grid. */
  val GridFracs: Seq[Double] = Seq(0.01, 0.05, 0.1, 0.15, 0.2)

  /** Independent 64-bit seeds from the workload seed (splitmix64 finalizer). */
  def derive(seed: Long, stream: Long, i: Long): Long = {
    def mix(z0: Long): Long = {
      var z = z0 + 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }
    mix(mix(mix(seed) + stream) + i)
  }

  private def adaptive(name: String, dataset: String, model: DiffusionModel, selector: Selector,
                       etaFrac: Double, solves: Int): Workload =
    Workload(name, dataset,
      Seq("dataset" -> dataset, "scale" -> Scale.toString, "graph_seed" -> GraphSeed.toString,
          "eps" -> Eps.toString, "eta_frac" -> etaFrac.toString, "model" -> model.name,
          "selector" -> selector.name, "solves" -> solves.toString),
      seed => (0 until solves).map { i =>
        AdaptiveSolve(i, model, selector, etaFrac, Eps, derive(seed, 1, i), derive(seed, 2, i))
      })

  private def ateucGrid(name: String, dataset: String, selectSeeds: Int,
                        realizations: Int): Workload =
    Workload(name, dataset,
      Seq("dataset" -> dataset, "scale" -> Scale.toString, "graph_seed" -> GraphSeed.toString,
          "eta_fracs" -> GridFracs.mkString(","), "models" -> "IC,LT", "selector" -> "ATEUC",
          "select_seeds_per_cell" -> selectSeeds.toString,
          "realizations_per_cell" -> realizations.toString),
      seed => {
        val cells = for (model <- DiffusionModel.all; frac <- GridFracs) yield (model, frac)
        cells.zipWithIndex.flatMap { case ((model, frac), c) =>
          val reals = (0 until realizations).map(r => derive(seed, 3, c * 1000L + r))
          (0 until selectSeeds).map { s =>
            AteucSolve(c * selectSeeds + s, model, frac, derive(seed, 4, c * 1000L + s), reals)
          }
        }.toIndexedSeq
      })

  val all: Seq[Workload] = Seq(
    adaptive("asti-ic", "nethept", DiffusionModel.IC, TrimSelector, 0.1, solves = 12),
    adaptive("astib-lt", "youtube", DiffusionModel.LT, TrimBSelector(4), 0.2, solves = 20),
    adaptive("adaptim-lt", "nethept", DiffusionModel.LT, AdaptImSelector, 0.1, solves = 8),
    ateucGrid("ateuc-grid", "nethept", selectSeeds = 4, realizations = 50),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Seeds are distinct node ids of the graph. */
  def checkSeedSet(g: CompactGraph, seeds: Vector[Int]): Seq[String] =
    Seq(
      if (seeds.isEmpty) Some("empty seed set") else None,
      if (seeds.distinct.size != seeds.size) Some("repeated seed") else None,
      if (seeds.exists(v => v < 0 || v >= g.n)) Some("seed outside the graph") else None,
    ).flatten

  /** An adaptive solve reaches η, and observing its seeds on the full graph
    * gives exactly the spread the adaptive loop reported.
    */
  def checkAdaptive(g: CompactGraph, s: AdaptiveSolve, seeds: Vector[Int],
                    finalSpread: Int): Seq[String] = {
    val eta = s.eta(g)
    val full = new Realization(g, s.model, s.realizationSeed).spread(seeds.toArray)
    checkSeedSet(g, seeds) ++ Seq(
      if (finalSpread < eta) Some(s"spread $finalSpread < η = $eta") else None,
      if (full != finalSpread) Some(s"full-graph spread $full != reported $finalSpread") else None,
    ).flatten
  }
}
