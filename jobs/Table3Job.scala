package repro.jobs

import repro.experiments.{ExpConfig, Table3}

/** Entrypoint reproducing Table 3 (improvement ratio of ASTI over ATEUC per
  * threshold, IC & LT; N/A where ATEUC misses η on some realization). It
  * starts no SparkSession: every solve runs on the driver's own threads.
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar [realizations > 0]
  * Realizations default to REPRO_REALIZATIONS, scale to REPRO_SCALE; ε is 0.5.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val realizations = ExpConfig.positive(
      args.headOption.map("realizations" -> _).toMap, "realizations", ExpConfig.realizations)(_.toInt)
    Table3.report(Table3.run(realizations = realizations), realizations)
  }
}
