package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Coverage bookkeeping over a collection of (m)RR-sets: Λ_R(v) is the number
  * of sets containing v (§3.4). Counting runs on the driver, over the sample
  * pool, which counts each set once as it is drawn (`MRRSamplerCtx.counts`);
  * the exploded DataFrame view lets the DuckDB oracle check it.
  */
object Coverage {

  /** Λ_R(v) for all v as a dense array. */
  def counts(n: Int, sets: Iterable[Array[Int]]): Array[Int] = {
    val c = new Array[Int](n)
    addCounts(c, sets)
    c
  }

  /** Add the membership of `sets` to the counts `c`. */
  def addCounts(c: Array[Int], sets: Iterable[Array[Int]]): Unit =
    sets.foreach { set =>
      var i = 0
      while (i < set.length) { c(set(i)) += 1; i += 1 }
    }

  /** Eligible node with maximum coverage (ties → smallest id) and its count.
    * Pass null to consider every node.
    */
  def topNode(counts: Array[Int], eligible: Array[Boolean] = null): (Int, Int) = {
    var best = -1
    var v = 0
    while (v < counts.length) {
      if ((eligible == null || eligible(v)) && (best < 0 || counts(v) > counts(best)))
        best = v
      v += 1
    }
    require(best >= 0, "no eligible node")
    (best, counts(best))
  }

  /** Exploded (setId, node) relation — the SQL view of the set collection,
    * consumed by DuckDB-oracle tests.
    */
  def setsDF(spark: SparkSession, sets: Seq[Array[Int]]): DataFrame = {
    import spark.implicits._
    sets.zipWithIndex
      .flatMap { case (set, id) => set.map(v => (id, v)) }
      .toDF("setId", "node")
  }

  /** Number of sets covered by seed set S (Λ_R(S)). */
  def coveredBy(sets: Iterable[Array[Int]], seeds: Array[Int]): Int = {
    val seedSet = seeds.toSet
    sets.count(_.exists(seedSet.contains))
  }

  /** Exact lazy greedy maximum coverage (CELF-style): yields picks in order,
    * each with its marginal gain and the cumulative number of covered sets.
    * Stops at `maxPicks` or when no node adds coverage. Shared by TRIM-B's
    * `Greedy(R)` (Algorithm 3, Line 8; TRIM's argmax at b = 1) and ATEUC's
    * candidate construction.
    */
  def greedySequence(n: Int, sets: collection.IndexedSeq[Array[Int]],
                     maxPicks: Int): Seq[(Int, Int, Int)] =
    greedySequence(counts(n, sets), sets, maxPicks)

  /** `greedySequence` from the counts of `sets` over node ids
    * `0 until counts.length`, already counted. `counts` is left unchanged:
    * picks after the first work on a copy.
    */
  def greedySequence(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]],
                     maxPicks: Int): Seq[(Int, Int, Int)] = {
    val n = counts.length
    // The first pick is the argmax of the counts (ties → smallest id). The
    // inverted index and the queue are built only for a second pick.
    val (first, firstGain) = if (n > 0) topNode(counts) else (-1, 0)
    if (maxPicks < 1 || firstGain == 0) Nil
    else if (maxPicks == 1) List((first, firstGain, firstGain))
    else (first, firstGain, firstGain) :: greedyRest(n, sets, counts.clone(), first, maxPicks)
  }

  /** Picks 2..maxPicks of `greedySequence`, given that `first` was picked
    * with the initial `gains`, which this decrements.
    */
  private def greedyRest(n: Int, sets: collection.IndexedSeq[Array[Int]], gains: Array[Int],
                         first: Int, maxPicks: Int): List[(Int, Int, Int)] = {
    // Inverted index node -> set ids, built once.
    val invOff = new Array[Int](n + 1)
    sets.foreach(_.foreach(v => invOff(v + 1) += 1))
    var v = 0
    while (v < n) { invOff(v + 1) += invOff(v); v += 1 }
    val inv = new Array[Int](invOff(n))
    val cursor = java.util.Arrays.copyOf(invOff, n)
    var i = 0
    while (i < sets.length) {
      sets(i).foreach { u => inv(cursor(u)) = i; cursor(u) += 1 }
      i += 1
    }

    val covered = new Array[Boolean](sets.length)
    var coveredCount = 0
    def pick(u: Int): Unit = {
      var j = invOff(u)
      while (j < invOff(u + 1)) {
        val s = inv(j)
        if (!covered(s)) {
          covered(s) = true
          coveredCount += 1
          sets(s).foreach(w => gains(w) -= 1)
        }
        j += 1
      }
    }
    pick(first)

    // Order by gain desc, then node id asc — deterministic tie-breaking that
    // matches a naive argmax greedy (tested for equivalence). Each node has
    // at most one entry, and a picked node's gain is 0, so it never returns.
    val pq = new java.util.PriorityQueue[(Int, Int)](
      math.max(1, n), Ordering.by[(Int, Int), (Int, Int)](t => (-t._1, t._2)))
    (0 until n).foreach(u => if (gains(u) > 0) pq.add((gains(u), u)))
    val out = List.newBuilder[(Int, Int, Int)]
    var picks = 1
    while (picks < maxPicks && !pq.isEmpty) {
      val (gain, u) = pq.poll()
      if (gain != gains(u)) pq.add((gains(u), u)) // stale entry: re-queue
      else if (gain == 0) { /* nothing left to cover */ picks = maxPicks }
      else {
        pick(u)
        picks += 1
        out += ((u, gain, coveredCount))
      }
    }
    out.result()
  }

  /** Greedy maximum coverage of up to b nodes: (seeds, #sets covered). */
  def greedyCover(n: Int, sets: collection.IndexedSeq[Array[Int]], b: Int): (Array[Int], Int) =
    greedyCover(counts(n, sets), sets, b)

  /** `greedyCover` from the counts of `sets`, already counted; `counts` is
    * left unchanged.
    */
  def greedyCover(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]],
                  b: Int): (Array[Int], Int) = {
    val seq = greedySequence(counts, sets, b)
    (seq.map(_._1).toArray, if (seq.isEmpty) 0 else seq.last._3)
  }
}
