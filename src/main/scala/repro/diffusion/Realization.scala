package repro.diffusion

import repro.graph.CompactGraph
import repro.util.{HelperPool, Rng}

import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLongArray}

/** One live-edge realization φ of a probabilistic graph, represented lazily
  * as a pure function of a 64-bit trial seed (§2.1, live-edge procedure).
  *
  * Nothing is materialized: edge status (IC) / chosen in-edge (LT) is derived
  * by hashing `(seed, edge or node)`. The same `Realization` object therefore
  * yields consistent answers across all ASTI rounds — the progressive
  * revelation that adaptive policies require — and is trivially shippable to
  * executors. An LT realization rejects a graph where some node's in-edge
  * probabilities sum beyond 1 (`CompactGraph.requireLT`).
  */
final class Realization(val graph: CompactGraph, val model: DiffusionModel, val seed: Long)
    extends Serializable {

  if (model == DiffusionModel.LT) graph.requireLT()

  private val LtSalt = 0x517cc1b727220a95L
  private val key = Rng.key(seed)

  /** IC: is edge e live under φ? */
  def icLive(e: Int): Boolean = Rng.keyedUniform(key, e) < graph.probs(e)

  /** LT: the single chosen in-edge id of node v, or -1 for "none".
    * The draw walks v's in-edges in deterministic (edge-id) order.
    */
  def ltChosen(v: Int): Int = {
    val u = Rng.keyedUniform(key, LtSalt ^ v.toLong)
    var acc = 0.0
    var i = graph.inOff(v)
    while (i < graph.inOff(v + 1)) {
      val e = graph.inEdge(i)
      acc += graph.probs(e)
      if (u < acc) return e
      i += 1
    }
    -1
  }

  /** Forward-reachable set from `seeds` through live edges, restricted to
    * nodes where `eligible` holds (pass null for no restriction), in
    * ascending node order. Seeds that are not eligible are skipped. This is
    * exactly the set of nodes a batch activates in the residual graph (§2.3).
    */
  def forwardReachable(seeds: Array[Int], eligible: Array[Boolean]): Array[Int] =
    reach(seeds, eligible) { (s, size) =>
      val out = new Array[Int](size)
      var i = 0
      while (i < size) { out(i) = s.slots.getPlain(i) - 1; i += 1 }
      java.util.Arrays.sort(out)
      out
    }

  /** Spread I_φ(S) (optionally restricted to a residual node set). */
  def spread(seeds: Array[Int], eligible: Array[Boolean] = null): Int =
    reach(seeds, eligible)((_, size) => size)

  /** Traverse from `seeds` on the calling thread's scratch, then return
    * `read(scratch, size)`, the reached nodes being `slots(0 until size)` − 1.
    *
    * The reached set under φ does not depend on visit order, so there are no
    * levels: the caller traverses alone while the backlog of published,
    * unexpanded nodes is under `Realization.Backlog`, then whichever helpers
    * of `HelperPool` join run the same loop with it. Each claims chunks of
    * slots (half the backlog per participant), expands their nodes, claims
    * their live, eligible, unmarked targets by CAS on the targets' marks, and
    * publishes those into fresh slots, so every reached node takes one slot.
    * The traversal ends when every reserved slot has been expanded.
    */
  private def reach[A](seeds: Array[Int], eligible: Array[Boolean])(read: (Realization.Scratch, Int) => A): A = {
    val s = Realization.scratch(graph.n, model == DiffusionModel.LT)
    s.begin()
    var size = 0
    try {
      var i = 0
      while (i < seeds.length) {
        val v = seeds(i)
        if (s.mark.getPlain(v) != s.epoch && (eligible == null || eligible(v))) {
          s.mark.setPlain(v, s.epoch)
          s.slots.setPlain(size, v + 1)
          size += 1
        }
        i += 1
      }
      s.cursors.set(Realization.Count, size.toLong << 32)
      if (!expand(s, eligible, 1, Realization.Backlog)) {
        val helpers = HelperPool.size
        HelperPool.run(helpers)(_ => expand(s, eligible, helpers + 1, Int.MaxValue))
      }
      size = s.reserved
      read(s, size)
    } finally s.clear(math.max(size, s.reserved))
  }

  /** One participant's share of a traversal on `s`: claim chunks of
    * published slots and expand their nodes until every reserved slot has
    * been expanded (true), or, only while the backlog is under `backlog`,
    * until it is not (false). A participant that fails stops the others.
    */
  private def expand(s: Realization.Scratch, eligible: Array[Boolean], participants: Int,
                     backlog: Int): Boolean = {
    import Realization.{Count, Failed, Head}
    val (outOff, dsts, probs) = (graph.outOff, graph.dsts, graph.probs)
    val (mark, slots, cursors, epoch) = (s.mark, s.slots, s.cursors, s.epoch)
    val lt = if (model == DiffusionModel.LT) s.lt else null
    // Targets claimed while expanding a chunk, published together.
    var found = new Array[Int](64)
    try {
      while (true) {
        val head = cursors.get(Head)
        val count = cursors.get(Count)
        val tail = count >>> 32
        if (head < tail) {
          if (tail - head >= backlog) return false
          val end = head + math.max(1, (tail - head) / (2 * participants))
          if (cursors.compareAndSet(Head, head, end)) {
            var k = 0
            var i = head.toInt
            while (i < end) {
              var x = slots.get(i)
              while (x == 0) { Thread.onSpinWait(); x = slots.get(i) }
              val u = x - 1
              var e = outOff(u)
              val last = outOff(u + 1)
              while (e < last) {
                val v = dsts(e)
                val m = mark.getPlain(v)
                if (m != epoch && (eligible == null || eligible(v))) {
                  val live =
                    if (lt == null) Rng.keyedUniform(key, e) < probs(e) // icLive(e)
                    else {
                      // Epoch in the high half, 2 + the chosen in-edge in the low.
                      var c = lt.getOpaque(v)
                      if ((c >>> 32).toInt != epoch) {
                        c = (epoch.toLong << 32) | (ltChosen(v) + 2)
                        lt.setOpaque(v, c)
                      }
                      c.toInt - 2 == e
                    }
                  if (live && mark.compareAndSet(v, m, epoch)) {
                    if (k == found.length) found = java.util.Arrays.copyOf(found, 2 * k)
                    found(k) = v
                    k += 1
                  }
                }
                e += 1
              }
              i += 1
            }
            // One add reserves the targets' slots and counts the chunk done,
            // so the traversal cannot look finished while they are unpublished.
            val at = (cursors.getAndAdd(Count, (k.toLong << 32) | (end - head)) >>> 32).toInt
            var j = 0
            while (j < k) { slots.lazySet(at + j, found(j) + 1); j += 1 }
          }
        } else if (tail == (count & 0xffffffffL) || cursors.get(Failed) != 0) return true
        else Thread.onSpinWait()
      }
      true
    } catch {
      case e: Throwable => cursors.set(Failed, 1); throw e
    }
  }
}

object Realization {

  /** Backlog of published, unexpanded nodes at which a traversal's caller
    * calls in the helpers; a smaller traversal never pays the hand-off.
    */
  private val Backlog = 64

  /** Indices into `Scratch.cursors`, one cache line apart: the next slot to
    * claim; the slots reserved (high half) and expanded (low half); and a
    * failure flag.
    */
  private val Head = 8
  private val Count = 16
  private val Failed = 24

  /** One calling thread's traversal state, reused by its every call on graphs
    * of up to `n` nodes. `mark(v) == epoch` iff v is reached in the current
    * call, so a call begins by bumping the epoch, and the marks are zeroed
    * only when it wraps. `slots(i)` is 1 + the i-th reserved node once it is
    * published, 0 before; a call zeroes the slots it used when it ends. Under
    * LT, `lt(v)` caches v's chosen in-edge for the epoch in its high half.
    * Only the caller writes outside a traversal (plain writes: the pool's
    * hand-off publishes them to the helpers); inside one, marks are claimed
    * by CAS, slots published by release writes, and the LT cache holds pure
    * draws, so a racing rewrite stores the same value.
    */
  private[diffusion] final class Scratch(val n: Int) {
    val mark = new AtomicIntegerArray(n)
    val slots = new AtomicIntegerArray(n)
    var lt: AtomicLongArray = _
    var epoch = 0
    val cursors = new AtomicLongArray(Failed + 8)

    def begin(): Unit = {
      if (epoch == Int.MaxValue) {
        var v = 0
        while (v < n) { mark.setPlain(v, 0); if (lt != null) lt.setPlain(v, 0L); v += 1 }
        epoch = 0
      }
      epoch += 1
      cursors.set(Head, 0L); cursors.set(Count, 0L); cursors.set(Failed, 0L)
    }

    /** Slots reserved so far in the current call. */
    def reserved: Int = (cursors.get(Count) >>> 32).toInt

    /** Zero `slots(0 until size)`. */
    def clear(size: Int): Unit = {
      var i = 0
      while (i < size) { slots.setPlain(i, 0); i += 1 }
    }
  }

  private val scratches = new ThreadLocal[Scratch]

  /** The calling thread's scratch, for graphs of `n` nodes, with an LT
    * cache if `lt`.
    */
  private[diffusion] def scratch(n: Int, lt: Boolean): Scratch = {
    var s = scratches.get()
    if (s == null || s.n < n) { s = new Scratch(n); scratches.set(s) }
    if (lt && s.lt == null) s.lt = new AtomicLongArray(s.n)
    s
  }
}
