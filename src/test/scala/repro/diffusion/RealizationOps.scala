package repro.diffusion

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Views of a `Realization` that only tests and test oracles use. */
object RealizationOps {

  implicit class RealizationViews(private val r: Realization) {

    /** Is edge e (into node `graph.dsts(e)`) live under φ in this model? */
    def liveInto(e: Int): Boolean = r.model match {
      case DiffusionModel.IC => r.icLive(e)
      case DiffusionModel.LT => r.ltChosen(r.graph.dsts(e)) == e
    }

    /** Materialized live edges as a DataFrame (src, dst) — the input of the
      * DuckDB recursive-CTE reachability check of `forwardReachable`.
      */
    def liveEdgesDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      val g = r.graph
      (0 until g.m).filter(liveInto).map(e => (g.srcs(e), g.dsts(e))).toDF("src", "dst")
    }
  }
}
