package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class SpansSpec extends AnyFunSuite {

  /** A clock that advances by the given steps, one per reading. */
  private def steppingClock(steps: Long*): () => Long = {
    val it = steps.iterator
    var now = 0L
    () => { now += it.next(); now }
  }

  test("spans nest, record their parent and finish innermost first") {
    // Readings: solve start 1, round start 2, select start 3, select end 7,
    // round end 8, solve end 10.
    val t = new Tracer(steppingClock(1, 1, 1, 4, 1, 2))
    t.span("solve") { _ => t.span("round") { _ => t.span("select")(_ => ()) } }
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(t.spans.map(_.name) == Seq("select", "round", "solve"))
    assert(byName("solve").parent == -1)
    assert(byName("round").parent == byName("solve").id)
    assert(byName("select").parent == byName("round").id)
    assert(byName("select").durNs == 4)
    assert(byName("round").durNs == 6)
    assert(byName("solve").durNs == 9)
  }

  test("a span is recorded when its body throws") {
    val t = new Tracer(steppingClock(1, 1))
    intercept[RuntimeException](t.span("boom")(_ => throw new RuntimeException("x")))
    assert(t.spans.map(_.name) == Seq("boom"))
  }

  test("self time subtracts the children's time") {
    val spans = Seq(
      Span(0, -1, "round", 0, 100),
      Span(1, 0, "select", 10, 70),
      Span(2, 0, "observe", 70, 80),
      Span(3, 1, "inner", 20, 30),
    )
    val self = Spans.selfNs(spans)
    assert(self == Map(0 -> 30L, 1 -> 50L, 2 -> 10L, 3 -> 10L))
    assert(Spans.selfSeconds(spans, "select") == 50e-9)
  }

  test("self time counts overlapping children once and clips them to the parent") {
    val spans = Seq(
      Span(0, -1, "p", 100, 200),
      Span(1, 0, "a", 110, 150),
      Span(2, 0, "b", 140, 160), // overlaps a by 10
      Span(3, 0, "c", 190, 230), // runs past the parent's end
      Span(4, 0, "d", 50, 90), // wholly outside the parent
    )
    assert(Spans.selfNs(spans)(0) == 100 - 50 - 10)
  }

  test("self time equals duration for a leaf, and several same-named spans add up") {
    val spans = Seq(Span(0, -1, "select", 0, 5), Span(1, -1, "select", 10, 17))
    assert(Spans.selfSeconds(spans, "select") == 12e-9)
    assert(Spans.selfSeconds(spans, "absent") == 0.0)
  }
}
