package repro.util

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  private val seeds = Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue, 0xDEADBEEFL)

  test("mix is deterministic") {
    assert(Rng.mix(42L) == Rng.mix(42L))
  }

  test("mix differs on nearby inputs") {
    assert(Rng.mix(1L) != Rng.mix(2L))
    assert(Rng.mix(0L) != Rng.mix(1L))
  }

  test("uniform is in [0,1) for varied seeds and indices") {
    for (s <- seeds; i <- -50L to 50L) {
      val u = Rng.uniform(s, i)
      assert(u >= 0.0 && u < 1.0, s"seed=$s i=$i u=$u")
    }
  }

  test("uniform is deterministic in (seed, i)") {
    for (s <- seeds; i <- 0L to 20L)
      assert(Rng.uniform(s, i) == Rng.uniform(s, i))
  }

  test("uniform decorrelates stream index") {
    val vals = (0 until 1000).map(i => Rng.uniform(7L, i.toLong))
    assert(vals.distinct.size == 1000)
  }

  test("uniform mean is near 0.5") {
    val mean = (0 until 20000).map(i => Rng.uniform(123L, i.toLong)).sum / 20000
    assert(math.abs(mean - 0.5) < 0.01, s"mean=$mean")
  }

  test("uniform decile histogram is flat") {
    val counts = new Array[Int](10)
    (0 until 50000).foreach(i => counts((Rng.uniform(5L, i.toLong) * 10).toInt) += 1)
    counts.foreach(c => assert(math.abs(c - 5000) < 400, counts.mkString(",")))
  }

  test("uniformInt respects bounds") {
    for (s <- seeds; i <- 0L to 100L) {
      val v = Rng.uniformInt(s, i, 17)
      assert(v >= 0 && v < 17)
    }
  }

  test("uniformInt rejects non-positive bound") {
    intercept[IllegalArgumentException](Rng.uniformInt(1L, 1L, 0))
  }

  test("uniformInt covers all values") {
    val seen = (0 until 1000).map(i => Rng.uniformInt(9L, i.toLong, 7)).toSet
    assert(seen == (0 until 7).toSet)
  }

  test("Stream is deterministic in (seed, i)") {
    val a = new Rng.Stream(3L, 4L)
    val b = new Rng.Stream(3L, 4L)
    (0 until 100).foreach(_ => assert(a.nextLong() == b.nextLong()))
  }

  test("Stream differs across stream indices") {
    val a = new Rng.Stream(3L, 4L)
    val b = new Rng.Stream(3L, 5L)
    assert((0 until 10).map(_ => a.nextLong()) != (0 until 10).map(_ => b.nextLong()))
  }

  test("Stream nextDouble in [0,1) with flat mean") {
    val s = new Rng.Stream(11L, 0L)
    val vals = (0 until 20000).map(_ => s.nextDouble())
    assert(vals.forall(v => v >= 0.0 && v < 1.0))
    assert(math.abs(vals.sum / vals.size - 0.5) < 0.01)
  }

  test("Stream nextInt respects bound and covers range") {
    val s = new Rng.Stream(13L, 1L)
    val vals = (0 until 2000).map(_ => s.nextInt(5))
    assert(vals.forall(v => v >= 0 && v < 5))
    assert(vals.toSet == (0 until 5).toSet)
  }

  test("state mixes seed and index order-sensitively") {
    assert(Rng.state(1L, 2L) != Rng.state(2L, 1L))
  }

  test("state is deterministic") {
    for (s <- seeds) assert(Rng.state(s, 9L) == Rng.state(s, 9L))
  }

  test("state and uniform keep their splitmix64 values") {
    // Literals from the reference formula mix(mix(seed) * γ + mix(i)).
    val pins = Seq(
      (42L, 7L, 1808941340612884000L, 0.0980629065695664),
      (-1L, 123456789L, 7988043687871764183L, 0.4330327160149843),
      (0L, 0L, 7815802643411119495L, 0.4236955102852141))
    for ((s, i, state, u) <- pins) {
      assert(Rng.state(s, i) == state && Rng.keyedState(Rng.key(s), i) == state)
      assert(Rng.uniform(s, i) == u && Rng.keyedUniform(Rng.key(s), i) == u)
    }
  }
}
