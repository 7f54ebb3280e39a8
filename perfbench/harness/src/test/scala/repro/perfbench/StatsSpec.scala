package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of an odd count is the middle value, whatever the input order") {
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(Stats.median(Seq(2.5)) == 2.5)
  }

  test("median of an even count is the mean of the two middle values") {
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(1.0, 1.0, 9.0, 9.0)) == 5.0)
  }

  test("mean") {
    assert(Stats.mean(Seq(1.0, 2.0, 6.0)) == 3.0)
  }

  test("median and mean of nothing are refused") {
    intercept[IllegalArgumentException](Stats.median(Nil))
    intercept[IllegalArgumentException](Stats.mean(Nil))
  }

  test("ratio is 0 when nothing was counted") {
    assert(Stats.ratio(3.0, 4.0) == 0.75)
    assert(Stats.ratio(0.0, 0.0) == 0.0)
    assert(Stats.ratio(5.0, 0.0) == 0.0)
  }

  test("result numbers keep all their digits") {
    assert(Json.num(1.2034567891234) == "1.2034567891234")
    assert(Json.num(3.0) == "3")
    assert(Json.obj(Seq("a\"b" -> Json.str("x\\y"))) == "{\"a\\\"b\": \"x\\\\y\"}")
    intercept[IllegalArgumentException](Json.num(Double.NaN))
  }

  test("seed derivation is a pure function of its arguments") {
    assert(Workloads.derive(1, 2, 3) == Workloads.derive(1, 2, 3))
    val ds = for (seed <- 0L to 3; stream <- 1L to 4; i <- 0L to 9) yield Workloads.derive(seed, stream, i)
    assert(ds.distinct.size == ds.size)
  }

  test("arguments: all four are required and checked") {
    val a = Main.parseArgs(Seq("--workload", "asti-ic", "--seed", "7", "--seconds", "10", "--trace", "1"))
    assert(a == Main.Args("asti-ic", 7L, 10.0, trace = true))
    intercept[IllegalArgumentException](Main.parseArgs(Seq("--workload", "asti-ic", "--seed", "7")))
    intercept[IllegalArgumentException](
      Main.parseArgs(Seq("--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2")))
    intercept[IllegalArgumentException](
      Main.parseArgs(Seq("--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "0", "--other", "1")))
  }

  test("every workload makes the same solve list from the same seed") {
    Workloads.all.foreach { w =>
      assert(w.solves(5L) == w.solves(5L), w.name)
      assert(w.solves(5L) != w.solves(6L), w.name)
    }
  }
}
