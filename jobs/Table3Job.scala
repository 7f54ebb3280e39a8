package repro.jobs

import repro.experiments.{ExpConfig, Table3}

/** Entrypoint reproducing Table 3 (improvement ratio of ASTI over ATEUC per
  * threshold, IC & LT; N/A where ATEUC misses η on some realization). It
  * starts no SparkSession: every solve runs on the driver's own threads.
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar [realizations]
  * Scale via REPRO_SCALE; ε is the paper's 0.5.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val realizations = args.headOption.map(_.toInt).getOrElse(ExpConfig.realizations)
    val cells = Table3.run(realizations = realizations)
    println(s"=== Table 3 (scale=${ExpConfig.scale}, R=$realizations, ε=${ExpConfig.eps}) ===")
    println(Table3.format(cells))
    println("--- paper values ---")
    Table3.paper.foreach { case (model, ds, vals) =>
      println(f"$model%-3s $ds%-12s ${vals.mkString("  ")}")
    }
  }
}
