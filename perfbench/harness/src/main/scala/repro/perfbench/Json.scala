package repro.perfbench

/** Just enough JSON for the result line. */
object Json {

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').result()
  }

  /** A finite number with all its digits. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a finite number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
