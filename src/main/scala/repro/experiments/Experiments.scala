package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.baselines.Ateuc
import repro.core._
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.{CompactGraph, GraphGen, GraphStats}
import repro.util.Rng

/** Shared configuration for the evaluation harnesses. Scale and realization
  * count default to the mini-scale grid of DESIGN.md §5 and are overridable
  * via environment (the paper used full SNAP datasets and 20 realizations);
  * ε is the paper's 0.5.
  */
object ExpConfig {
  def scale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)
  def realizations: Int = sys.env.get("REPRO_REALIZATIONS").map(_.toInt).getOrElse(3)
  val eps = 0.5
  val graphSeed = 42L

  /** Paper's large-η grid (NetHEPT/Epinions/Youtube). */
  val largeEtaFracs: Seq[Double] = Seq(0.01, 0.05, 0.1, 0.15, 0.2)

  /** Paper's small-η grid (LiveJournal). */
  val smallEtaFracs: Seq[Double] = Seq(0.01, 0.02, 0.03, 0.04, 0.05)

  def fracsFor(dataset: String): Seq[Double] =
    if (dataset == "livejournal") smallEtaFracs else largeEtaFracs
}

/** Table 2 — dataset statistics: n, m, type, average degree, LWCC size. */
object Table2 {

  final case class Row(name: String, n: Int, m: Int, directed: Boolean,
                       avgDeg: Double, lwcc: Long)

  /** Paper's Table 2 values, kept adjacent for EXPERIMENTS.md diffing. */
  val paper: Seq[(String, String, String, String, String, String)] = Seq(
    ("nethept", "15.2K", "31.4K", "undirected", "4.18", "6.80K"),
    ("epinions", "132K", "841K", "directed", "13.4", "119K"),
    ("youtube", "1.13M", "2.99M", "undirected", "5.29", "1.13M"),
    ("livejournal", "4.85M", "69.0M", "directed", "28.5", "4.84M"),
  )

  def run(spark: SparkSession, scale: Double = ExpConfig.scale): Seq[Row] =
    GraphGen.datasets.map { spec =>
      val g = GraphGen.dataset(spec.name, scale, ExpConfig.graphSeed)
      // Paper's "Avg. deg." is 2m/n with m as listed in Table 2 (undirected
      // edges counted once). Our m counts arcs, i.e. undirected edges twice,
      // so: undirected → arcs/n, directed → 2·arcs/n.
      val avgDeg = (if (spec.directed) 2.0 else 1.0) * g.m / g.n
      Row(spec.name, g.n, g.m, spec.directed, avgDeg, GraphStats.lwccSize(spark, g))
    }

  def format(rows: Seq[Row]): String = {
    val header = f"${"Dataset"}%-12s ${"n"}%8s ${"m(arcs)"}%9s ${"Type"}%-10s ${"AvgDeg"}%7s ${"LWCC"}%8s ${"LWCC%"}%6s"
    val lines = rows.map { r =>
      val typ = if (r.directed) "directed" else "undirected"
      f"${r.name}%-12s ${r.n}%8d ${r.m}%9d $typ%-10s ${r.avgDeg}%7.2f ${r.lwcc}%8d ${100.0 * r.lwcc / r.n}%5.1f%%"
    }
    (header +: lines).mkString("\n")
  }
}

/** Table 3 — improvement ratio of ASTI over ATEUC in the number of seed
  * nodes, per threshold fraction and model; N/A where ATEUC's (non-adaptive)
  * seed set fails to reach η on at least one test realization.
  */
object Table3 {

  final case class Cell(
      dataset: String,
      model: DiffusionModel,
      etaFrac: Double,
      eta: Int,
      astiAvgSeeds: Double,
      ateucSeeds: Int,
      feasibleRealizations: Int,
      realizations: Int
  ) {
    /** ATEUC-over-ASTI excess, e.g. 0.408 = "ATEUC selects 40.8% more". */
    def improvement: Option[Double] =
      if (feasibleRealizations == realizations && astiAvgSeeds > 0)
        Some(ateucSeeds / astiAvgSeeds - 1.0)
      else None
  }

  /** Paper's Table 3 (IC, then LT), for EXPERIMENTS.md diffing. */
  val paper: Seq[(String, String, Seq[String])] = Seq(
    ("IC", "nethept", Seq("N/A", "40.8%", "43.8%", "43.0%", "43.7%")),
    ("IC", "epinions", Seq("N/A", "N/A", "50.7%", "N/A", "65.7%")),
    ("IC", "youtube", Seq("0.0%", "24.3%", "N/A", "37.5%", "41.7%")),
    ("IC", "livejournal", Seq("N/A", "43.0%", "34.9%", "N/A", "33.0%")),
    ("LT", "nethept", Seq("N/A", "N/A", "N/A", "44.3%", "47.5%")),
    ("LT", "epinions", Seq("N/A", "N/A", "N/A", "N/A", "N/A")),
    ("LT", "youtube", Seq("0.0%", "39.5%", "54.1%", "N/A", "47.9%")),
    ("LT", "livejournal", Seq("N/A", "N/A", "N/A", "N/A", "N/A")),
  )

  def runCell(g: CompactGraph, dataset: String, model: DiffusionModel, etaFrac: Double,
              realizations: Int, eps: Double, seed: Long): Cell = {
    val eta = math.max(1, (g.n * etaFrac).toInt)
    val ateuc = Ateuc.select(g, eta, model, Rng.state(seed, 1L))
    var feasible = 0
    var astiSeedSum = 0.0
    (0 until realizations).foreach { r =>
      val realSeed = Rng.state(seed, 1000L + r)
      val asti = Asti.run(g, eta, eps, TrimSelector, model, realSeed, Rng.state(seed, 2000L + r))
      require(asti.finalSpread >= eta,
        s"ASTI must always reach η; got ${asti.finalSpread} < $eta")
      astiSeedSum += asti.numSeeds
      val spread = new Realization(g, model, realSeed).spread(ateuc.seeds)
      if (spread >= eta) feasible += 1
    }
    Cell(dataset, model, etaFrac, eta, astiSeedSum / realizations,
         ateuc.numSeeds, feasible, realizations)
  }

  def run(datasets: Seq[String] = GraphGen.datasets.map(_.name),
          models: Seq[DiffusionModel] = DiffusionModel.all,
          realizations: Int = ExpConfig.realizations,
          eps: Double = ExpConfig.eps,
          scale: Double = ExpConfig.scale,
          seed: Long = 1234L): Seq[Cell] =
    for {
      dataset <- datasets
      g = GraphGen.dataset(dataset, scale, ExpConfig.graphSeed)
      model <- models
      frac <- ExpConfig.fracsFor(dataset)
    } yield {
      val cell = runCell(g, dataset, model, frac, realizations, eps,
                         Rng.state(seed, (dataset + model.name + frac).hashCode.toLong))
      Console.err.println(s"[Table3] ${format(Seq(cell))}")
      cell
    }

  def format(cells: Seq[Cell]): String =
    cells.map { c =>
      val imp = c.improvement.map(i => f"${i * 100}%.1f%%").getOrElse(
        s"N/A(${c.feasibleRealizations}/${c.realizations} feasible)")
      f"${c.model.name}%-3s ${c.dataset}%-12s η/n=${c.etaFrac}%-5s η=${c.eta}%-6d " +
        f"ASTI=${c.astiAvgSeeds}%8.2f ATEUC=${c.ateucSeeds}%5d improvement=$imp"
    }.mkString("\n")
}

/** Supporting comparison (claims carried by Figures 4–8 that Table 3 relies
  * on): seed counts and sampling effort for ASTI, ASTI-b, ADAPTIM, ATEUC on
  * one configuration, plus the §6.4 reliability check (does each algorithm
  * reach η on every realization?).
  */
object AlgoComparison {

  /** `avgWork` is the mean number of random draws the reverse BFS made per
    * run (the `draws` column).
    */
  final case class Row(algo: String, avgSeeds: Double, avgSamples: Double,
                       avgWork: Double, avgMillis: Double, feasible: Int,
                       realizations: Int)

  def run(dataset: String, model: DiffusionModel, etaFrac: Double,
          realizations: Int = ExpConfig.realizations, eps: Double = ExpConfig.eps,
          scale: Double = ExpConfig.scale, seed: Long = 99L): Seq[Row] = {
    val g = GraphGen.dataset(dataset, scale, ExpConfig.graphSeed)
    val eta = math.max(1, (g.n * etaFrac).toInt)
    val adaptive: Seq[Selector] =
      Seq(TrimSelector, TrimBSelector(2), TrimBSelector(4), TrimBSelector(8), AdaptImSelector)
    val rows = adaptive.map { sel =>
      var seeds = 0.0; var samples = 0.0; var work = 0.0; var millis = 0.0; var feas = 0
      (0 until realizations).foreach { r =>
        val res = Asti.run(g, eta, eps, sel, model,
                           Rng.state(seed, 10L + r), Rng.state(seed, 20L + r))
        seeds += res.numSeeds; samples += res.samples; work += res.work
        millis += res.wallMillis
        if (res.finalSpread >= eta) feas += 1
      }
      Row(sel.name, seeds / realizations, samples / realizations,
          work / realizations, millis / realizations, feas, realizations)
    }
    val t0 = System.nanoTime()
    val ateuc = Ateuc.select(g, eta, model, Rng.state(seed, 30L))
    val ateucMs = (System.nanoTime() - t0) / 1e6
    val feasible = (0 until realizations).count { r =>
      new Realization(g, model, Rng.state(seed, 10L + r)).spread(ateuc.seeds) >= eta
    }
    rows :+ Row("ATEUC", ateuc.numSeeds.toDouble, ateuc.samples.toDouble,
                ateuc.work.toDouble, ateucMs, feasible, realizations)
  }

  def format(dataset: String, model: DiffusionModel, etaFrac: Double,
             rows: Seq[Row]): String = {
    val header =
      f"[$dataset ${model.name} η/n=$etaFrac] ${"algo"}%-8s ${"seeds"}%8s ${"samples"}%12s ${"draws"}%12s ${"ms"}%8s  feasible"
    val lines = rows.map { r =>
      f"  ${r.algo}%-8s ${r.avgSeeds}%8.2f ${r.avgSamples}%12.0f ${r.avgWork}%12.0f ${r.avgMillis}%8.0f  ${r.feasible}/${r.realizations}"
    }
    (header +: lines).mkString("\n")
  }
}
