package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.{ExpConfig, Table2}

/** spark-submit entrypoint reproducing Table 2 (dataset statistics).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro.jar [scale > 0, default REPRO_SCALE]
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val scale = ExpConfig.positive(args.headOption.map("scale" -> _).toMap, "scale", ExpConfig.scale)(_.toDouble)
    val spark = SparkSession.builder.appName("table2").getOrCreate()
    try Table2.report(Table2.run(spark, scale), scale)
    finally spark.stop()
  }
}
