package repro.perfbench

/** Summary statistics for the benchmark's own figures. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.toArray.sorted
    val mid = s.length / 2
    if (s.length % 2 == 1) s(mid) else (s(mid - 1) + s(mid)) / 2.0
  }

  def mean(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "mean of no values")
    xs.sum / xs.size
  }

  /** `num / den`, or 0 when nothing was counted (a layer the workload never
    * enters, such as Spark jobs on a driver-only workload).
    */
  def ratio(num: Double, den: Double): Double = if (den == 0.0) 0.0 else num / den
}
