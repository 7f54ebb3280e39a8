package repro.core

/** Coverage bookkeeping over a collection of (m)RR-sets: Λ_R(v) is the number
  * of sets containing v (§3.4). The sampler's workers count each set as they
  * draw it (`MRRSamplerCtx.counts`); `counts` recounts a given collection.
  */
object Coverage {

  /** Λ_R(v) for all v as a dense array. */
  def counts(n: Int, sets: Iterable[Array[Int]]): Array[Int] = {
    val c = new Array[Int](n)
    sets.foreach { set =>
      var i = 0
      while (i < set.length) { c(set(i)) += 1; i += 1 }
    }
    c
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

  /** Exact lazy greedy maximum coverage (CELF-style) over `sets`, whose counts
    * over node ids `0 until counts.length` are `counts` (left unchanged).
    * Yields picks on demand, in order, each with its marginal gain and the
    * cumulative number of covered sets: gain descending, ties to the smaller
    * node id. It ends when no node adds coverage. Making it builds the
    * inverted index and the heap, one pass over `sets`. Shared by TRIM-B's
    * `Greedy(R)` (Algorithm 3, Line 8, at b ≥ 2; at b = 1 TRIM reads
    * `topNode`) and ATEUC, which pulls only up to its certified prefix S_u.
    *
    * The iterator reads `sets` and `counts` as they are when it is pulled:
    * use it up or drop it before the pool grows (`MRRSamplerCtx.growTo`).
    */
  def greedy(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]]): Iterator[(Int, Int, Int)] =
    new LazyGreedy(counts, sets)

  /** The first `maxPicks` picks of `greedy`, from the counts of `sets`. */
  def greedySequence(n: Int, sets: collection.IndexedSeq[Array[Int]],
                     maxPicks: Int): Seq[(Int, Int, Int)] =
    greedySequence(counts(n, sets), sets, maxPicks)

  /** The first `maxPicks` picks of `greedy(counts, sets)`, fewer if coverage
    * runs out first.
    */
  def greedySequence(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]],
                     maxPicks: Int): Seq[(Int, Int, Int)] =
    greedy(counts, sets).take(maxPicks).toList

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

  /** The ids of the sets holding each node, node v's at `[off(v), off(v + 1))`,
    * with `off` filled here from `counts`; rejects counts that do not match.
    */
  private def invertedIndex(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]],
                            off: Array[Int]): Array[Int] = {
    val n = counts.length
    var v = 0
    while (v < n) { off(v + 1) = off(v) + counts(v); v += 1 }
    val inv = new Array[Int](off(n))
    val cursor = java.util.Arrays.copyOf(off, n)
    var i = 0
    while (i < sets.length) {
      val set = sets(i)
      var j = 0
      while (j < set.length) { val u = set(j); inv(cursor(u)) = i; cursor(u) += 1; j += 1 }
      i += 1
    }
    v = 0
    while (v < n) {
      require(cursor(v) == off(v + 1), s"counts($v) = ${counts(v)} does not match the sets")
      v += 1
    }
    inv
  }

  /** The iterator behind `greedy`: an inverted index node -> set ids, laid
    * out by `counts`, and a max-heap of `Long` keys
    * `gain << 31 | (Int.MaxValue - u)`, so key order is gain descending,
    * then node id ascending. Gains only fall as sets get covered, so a key
    * is an upper bound of its node's gain: a popped key that is stale is
    * re-keyed and sifted down (or dropped at gain 0), and a current one is
    * the exact greedy pick.
    */
  private final class LazyGreedy(counts: Array[Int], sets: collection.IndexedSeq[Array[Int]])
      extends Iterator[(Int, Int, Int)] {
    // The scans run in methods, not in the constructor body: HotSpot ran
    // them there several times slower (up to 20× for the index alone) over
    // the first hundred or so iterators, which doubled ATEUC's select time.
    private val n = counts.length
    private val gains = counts.clone()
    private val covered = new Array[Boolean](sets.length)
    private var coveredCount = 0
    private val invOff = new Array[Int](n + 1)
    private val inv = invertedIndex(counts, sets, invOff)
    private val heap = new Array[Long](n)
    private var heapSize = 0
    heapify()
    // The next pick, found by hasNext; -1 when not yet looked for.
    private var nextNode = -1
    private var nextGain = 0

    def hasNext: Boolean = {
      if (nextNode < 0) popCurrent()
      nextNode >= 0
    }

    def next(): (Int, Int, Int) = {
      if (!hasNext) throw new NoSuchElementException("greedy coverage is exhausted")
      val u = nextNode
      val gain = nextGain
      nextNode = -1
      pick(u)
      (u, gain, coveredCount)
    }

    /** The heap of the positive gains, built in O(n). */
    private def heapify(): Unit = {
      var v = 0
      while (v < n) {
        if (gains(v) > 0) { heap(heapSize) = key(gains(v), v); heapSize += 1 }
        v += 1
      }
      var h = heapSize / 2 - 1
      while (h >= 0) { siftDown(h); h -= 1 }
    }

    @inline private def key(gain: Int, u: Int): Long = gain.toLong << 31 | (Int.MaxValue - u)

    /** Cover the sets of `u`, lowering the gains of their members. */
    private def pick(u: Int): Unit = {
      var j = invOff(u)
      while (j < invOff(u + 1)) {
        val s = inv(j)
        if (!covered(s)) {
          covered(s) = true
          coveredCount += 1
          val set = sets(s)
          var k = 0
          while (k < set.length) { gains(set(k)) -= 1; k += 1 }
        }
        j += 1
      }
    }

    /** Pop stale keys until the top is current; it becomes the next pick. */
    private def popCurrent(): Unit =
      while (nextNode < 0 && heapSize > 0) {
        val top = heap(0)
        val u = Int.MaxValue - (top & Int.MaxValue).toInt
        val gain = (top >>> 31).toInt
        if (gain == gains(u)) { nextNode = u; nextGain = gain; removeTop() }
        else if (gains(u) > 0) { heap(0) = key(gains(u), u); siftDown(0) }
        else removeTop()
      }

    private def removeTop(): Unit = {
      heapSize -= 1
      heap(0) = heap(heapSize)
      if (heapSize > 0) siftDown(0)
    }

    private def siftDown(i0: Int): Unit = {
      val x = heap(i0)
      var i = i0
      var c = 2 * i + 1
      while (c < heapSize) {
        if (c + 1 < heapSize && heap(c + 1) > heap(c)) c += 1
        if (heap(c) > x) { heap(i) = heap(c); i = c; c = 2 * i + 1 }
        else c = heapSize
      }
      heap(i) = x
    }
  }
}
