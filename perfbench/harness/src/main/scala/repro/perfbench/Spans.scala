package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** A finished span: `parent` is the id of the span that was open when this
  * one began, or -1 at the top.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Records nested spans on one thread, in memory, for the traced run. The
  * clock is injectable so tests can drive it.
  */
final class Tracer(clock: () => Long = () => System.nanoTime()) {
  private val finished = ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  /** Run `body` inside a span named `name`; the body receives the span's id. */
  def span[A](name: String)(body: Int => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name, clock()) :: open
    try body(id)
    finally {
      val (_, _, start) = open.head
      open = open.tail
      finished += Span(id, parent, name, start, clock())
    }
  }

  /** Spans finished so far, in finishing order. */
  def spans: IndexedSeq[Span] = finished.toIndexedSeq
}

object Spans {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (overlapping children count once; parts of a
    * child outside its parent's interval do not count).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var reach = s.startNs
      kids.foreach { case (a, b) =>
        val from = math.max(a, reach)
        if (b > from) { covered += b - from; reach = b }
      }
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Total self time, in seconds, of the spans named `name`. */
  def selfSeconds(spans: Seq[Span], name: String): Double = {
    val self = selfNs(spans)
    spans.filter(_.name == name).map(s => self(s.id)).sum / 1e9
  }
}
