package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}

class CoverageSpec extends AnyFunSuite with SparkSpec {

  private val sets: IndexedSeq[Array[Int]] = IndexedSeq(
    Array(0, 1, 2), Array(1, 2), Array(2, 3), Array(4), Array(2))

  test("counts tallies membership") {
    val c = Coverage.counts(5, sets)
    assert(c.toSeq == Seq(1, 2, 4, 1, 1))
  }

  test("counts on empty input is all zeros") {
    assert(Coverage.counts(3, Seq.empty).toSeq == Seq(0, 0, 0))
  }

  test("topNode returns the argmax") {
    val (v, c) = Coverage.topNode(Coverage.counts(5, sets))
    assert(v == 2 && c == 4)
  }

  test("topNode respects eligibility") {
    val eligible = Array(true, true, false, true, true)
    val (v, c) = Coverage.topNode(Coverage.counts(5, sets), eligible)
    assert(v == 1 && c == 2)
  }

  test("topNode requires an eligible node") {
    intercept[IllegalArgumentException](
      Coverage.topNode(Array(1, 2), Array(false, false)))
  }

  test("coverage counting agrees with the DuckDB oracle over the exploded relation") {
    import spark.implicits._
    val rnd = new scala.util.Random(1)
    val big = IndexedSeq.fill(500)(Array.fill(rnd.nextInt(10) + 1)(rnd.nextInt(50)).distinct)
    for ((n, ss) <- Seq(5 -> sets, 50 -> big)) {
      val driver = Coverage.counts(n, ss).toSeq.zipWithIndex
        .collect { case (c, v) if c > 0 => (v, c.toLong) }
        .toDF("node", "cnt")
      Oracle.assertEquivalent(
        driver,
        "SELECT CAST(node AS INT) AS node, count(*) AS cnt FROM sets GROUP BY 1",
        "sets" -> setsDF(ss))
    }
  }

  /** Exploded (setId, node) relation: the SQL view of a set collection. */
  private def setsDF(ss: Seq[Array[Int]]) = {
    import spark.implicits._
    ss.zipWithIndex
      .flatMap { case (set, id) => set.map(v => (id, v)) }
      .toDF("setId", "node")
  }

  private def naiveGreedy(n: Int, ss: IndexedSeq[Array[Int]], b: Int): Seq[(Int, Int, Int)] = {
    val covered = scala.collection.mutable.Set.empty[Int]
    val picked = scala.collection.mutable.Set.empty[Int]
    val out = Seq.newBuilder[(Int, Int, Int)]
    var continue = true
    while (picked.size < b && continue) {
      val gains = (0 until n).filterNot(picked)
        .map(v => v -> ss.indices.count(i => !covered(i) && ss(i).contains(v)))
      val (v, g) = gains.maxBy { case (vv, gg) => (gg, -vv) }
      if (g == 0) continue = false
      else {
        picked += v
        ss.indices.foreach(i => if (ss(i).contains(v)) covered += i)
        out += ((v, g, covered.size))
      }
    }
    out.result()
  }

  test("greedySequence matches naive greedy on the fixture") {
    assert(Coverage.greedySequence(5, sets, 5) == naiveGreedy(5, sets, 5))
  }

  test("greedySequence matches naive greedy on random instances") {
    val rnd = new scala.util.Random(7)
    (0 until 5).foreach { trial =>
      val ss = IndexedSeq.fill(40)(Array.fill(rnd.nextInt(5) + 1)(rnd.nextInt(12)).distinct)
      for (picks <- Seq(12, 1)) {
        val fast = Coverage.greedySequence(12, ss, picks)
        val slow = naiveGreedy(12, ss, picks)
        // Identical tie-breaking (gain desc, node id asc) → exact sequence match.
        assert(fast == slow, s"trial $trial, maxPicks $picks: $fast vs $slow")
      }
    }
  }

  test("greedySequence stops when everything is covered") {
    val ss = IndexedSeq(Array(0), Array(0, 1))
    val seq = Coverage.greedySequence(3, ss, 3)
    assert(seq.map(_._1) == Seq(0))
    assert(seq.head._3 == 2)
  }

  test("greedyCover respects the batch bound") {
    val (seeds, covered) = Coverage.greedyCover(5, sets, 2)
    assert(seeds.length == 2)
    assert(seeds.head == 2)
    val isSeed = seeds.toSet
    assert(covered == sets.count(_.exists(isSeed)))
  }

  test("greedyCover achieves optimal coverage on a separable instance") {
    val ss = IndexedSeq(Array(0), Array(0), Array(1), Array(1), Array(2))
    val (seeds, covered) = Coverage.greedyCover(3, ss, 2)
    assert(seeds.toSet == Set(0, 1) && covered == 4)
  }

  test("greedy marginal gains are non-increasing") {
    val rnd = new scala.util.Random(11)
    val ss = IndexedSeq.fill(100)(Array.fill(rnd.nextInt(6) + 1)(rnd.nextInt(20)).distinct)
    val gains = Coverage.greedySequence(20, ss, 20).map(_._2)
    assert(gains.sliding(2).forall(p => p.length < 2 || p(0) >= p(1)), gains.mkString(","))
  }

  /** Random instances over 12 nodes, plus tie-heavy ones: sets repeated 1–3
    * times, over pairs of nodes {2k, 2k+1} that always have equal gains.
    */
  private def instances(seed: Int): Seq[IndexedSeq[Array[Int]]] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(6) {
      IndexedSeq.fill(40)(Array.fill(rnd.nextInt(5) + 1)(rnd.nextInt(12)).distinct)
    } ++ Seq.fill(6) {
      val base = IndexedSeq.fill(12)(
        Array.fill(rnd.nextInt(3) + 1)(rnd.nextInt(6)).distinct.flatMap(k => Array(2 * k, 2 * k + 1)))
      base.flatMap(set => Seq.fill(rnd.nextInt(3) + 1)(set.clone()))
    }
  }

  test("pulling k greedy picks gives the first k of naive greedy, for every k") {
    for (ss <- instances(3)) {
      val counts = Coverage.counts(12, ss)
      val full = naiveGreedy(12, ss, 12)
      (0 to full.length + 1).foreach { k =>
        assert(Coverage.greedy(counts, ss).take(k).toList == full.take(k), s"k = $k")
      }
      assert(counts.toSeq == Coverage.counts(12, ss).toSeq, "counts must be left unchanged")
    }
  }

  test("the greedy iterator ends exactly when every gain is 0") {
    for (ss <- instances(5) :+ IndexedSeq(Array(0), Array(0, 1), Array.empty[Int])) {
      val it = Coverage.greedy(Coverage.counts(12, ss), ss)
      val picks = it.toList
      assert(picks == naiveGreedy(12, ss, 12))
      // Every non-empty set is covered, so no node has a positive gain left,
      // and the last pick was the one that covered the last set.
      assert(picks.last._3 == ss.count(_.nonEmpty))
      assert(picks.map(_._2).forall(_ > 0))
      assert(!it.hasNext)
      intercept[NoSuchElementException](it.next())
    }
  }

  test("greedySequence at maxPicks 0, 1, 2 and n, and on an empty pool") {
    for (ss <- instances(9) :+ sets; n = 12; k <- Seq(0, 1, 2, n))
      assert(Coverage.greedySequence(n, ss, k) == naiveGreedy(n, ss, k), s"maxPicks = $k")
    for (k <- Seq(0, 1, 2, 5)) {
      assert(Coverage.greedySequence(5, IndexedSeq.empty, k) == Nil)
      assert(Coverage.greedySequence(0, IndexedSeq.empty, k) == Nil)
      val (seeds, covered) = Coverage.greedyCover(5, IndexedSeq.empty, k)
      assert(seeds.isEmpty && covered == 0)
    }
  }

  test("greedy rejects counts that do not match the sets") {
    val wrong = Coverage.counts(5, sets)
    wrong(1) += 1
    intercept[IllegalArgumentException](Coverage.greedy(wrong, sets))
  }
}
