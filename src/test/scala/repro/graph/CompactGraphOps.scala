package repro.graph

/** Read-only views of a `CompactGraph` that only tests use. */
object CompactGraphOps {

  implicit class OutDegree(private val g: CompactGraph) extends AnyVal {
    def outDeg(v: Int): Int = g.outOff(v + 1) - g.outOff(v)
  }
}
