package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.diffusion.DiffusionModel
import repro.graph.{CompactGraph, NodeQueue}
import repro.util.{HelperPool, Rng}

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import scala.collection.immutable.ArraySeq

/** Multi-root reverse reachable (mRR) set sampling (§3.3).
  *
  * A random mRR-set is generated by (1) drawing a root set K of randomized
  * size k = ⌊n_i/η_i⌋ (+1 with probability frac(n_i/η_i)) uniformly without
  * replacement from the residual nodes, in exactly k draws by Floyd's
  * algorithm (Bentley & Floyd, CACM 30(9), 1987), and (2) a stochastic
  * reverse BFS from K restricted to the residual graph. With
  * `vanillaRoots = true` the sampler degenerates to single-root RR-sets
  * (k = 1, one draw in [0, n_i)), which is what the ATEUC and AdaptIM
  * baselines consume. Both steps write into the drawing thread's reused
  * `NodeQueue`, one visited set and queue. The reverse BFS does
  * constant expected work at a node whose in-edges share one probability
  * (every node with two or more in-edges under weighted cascade), and one
  * step per in-edge elsewhere.
  *
  * Each set is a pure function of `(seedBase, sampleIndex)`. Sets are drawn
  * and counted on the driver by the calling thread and the helper threads of
  * `HelperPool`, up to one per core, each claiming chunks of the index range
  * from a shared cursor (`MRRSamplerCtx.growTo`, `countTo` and
  * `generateLocal`). One caller at a time holds the helpers and merges their
  * counts; a concurrent caller samples alone. The RDD fan-out
  * (`generateSpark`) runs the same kernel and is kept as the reference the
  * two are tested byte-identical against.
  */
object MRRSampler {

  /** Fewest sets per driver participant: a call draws on at most
    * count / `MinBlock` threads. Small enough that TRIM's first draw of a
    * round (the first doubling of θ_o that reaches c_min, 364–572 sets on
    * nethept) spreads over every core.
    */
  val MinBlock = 16

  /** Randomized root size (Theorem 3.3's rounding): ⌊n/η⌋ or ⌈n/η⌉. */
  def rootSize(nI: Int, etaI: Int, u: Double): Int = {
    val ratio = nI.toDouble / etaI
    val kLo = ratio.toInt
    val k = if (u < ratio - kLo) kLo + 1 else kLo
    math.min(math.max(1, k), nI)
  }

  private val queues = new ThreadLocal[NodeQueue]
  private val countArrays = new ThreadLocal[Array[Int]]

  /** The calling thread's queue, for graphs of up to `n` nodes. */
  private[core] def queue(n: Int): NodeQueue = {
    var q = queues.get()
    if (q == null || q.n < n) { q = new NodeQueue(n); queues.set(q) }
    q
  }

  /** The calling thread's count array of at least `n` entries, all zero:
    * every merge zeroes what it adds.
    */
  private[core] def counts(n: Int): Array[Int] = {
    var c = countArrays.get()
    if (c == null || c.length < n) { c = new Array[Int](n); countArrays.set(c) }
    c
  }

  /** Draw set `idx` into `s` (read it with `s.result()` or `s.countInto`)
    * and return the number of random draws its reverse BFS made.
    */
  private[core] def sampleInto(s: NodeQueue, g: CompactGraph, inactive: Array[Boolean],
                               inactiveNodes: Array[Int], etaI: Int, model: DiffusionModel,
                               vanillaRoots: Boolean, seedBase: Long, idx: Long): Int = {
    val rng = new Rng.Stream(seedBase, idx)
    val nI = inactiveNodes.length
    val k = if (vanillaRoots) 1 else rootSize(nI, etaI, rng.nextDouble())
    s.begin()
    addRoots(s, inactiveNodes, k, rng)
    if (model == DiffusionModel.IC) reverseIC(s, g, inactive, rng)
    else reverseLT(s, g, inactive, rng)
  }

  /** Add a uniform k-subset of `nodes` to `s` by Floyd's algorithm, in k
    * draws. Step j draws a position t in [0, j] and adds the node there, or
    * the node at position j (which no earlier step could reach) if t's node
    * is in `s` already.
    */
  private[core] def addRoots(s: NodeQueue, nodes: Array[Int], k: Int, rng: Rng.Stream): Unit = {
    var j = nodes.length - k
    while (j < nodes.length) {
      val v = nodes(rng.nextInt(j + 1))
      s.add(if (s.contains(v)) nodes(j) else v)
      j += 1
    }
  }

  /** Most draws of LT's rejection step at one node before the exact scan. */
  private[core] val LtRejections = 8

  /** IC reverse BFS: each in-edge from an inactive source is live
    * independently. At a node whose d in-edges share one probability p
    * (`CompactGraph.sharedP`), the number of live in-edges L ~ Binomial(d, p)
    * is drawn by sequential inversion, scanning the node's table
    * `CompactGraph.icCdf` of P(L ≤ l), then L distinct in-edges uniformly by
    * Floyd's algorithm. A live edge whose source is active or visited adds
    * nothing, which is exact because edge liveness is independent of
    * activity. At other nodes one coin is flipped per in-edge from an
    * unvisited inactive source.
    */
  private def reverseIC(s: NodeQueue, g: CompactGraph, inactive: Array[Boolean],
                        rng: Rng.Stream): Int = {
    val (inOff, inEdge, inSrc, probs) = (g.inOff, g.inEdge, g.inSrc, g.probs)
    val (cdfOff, cdf) = (g.icCdfOff, g.icCdf)
    var picks: Array[Int] = null // Floyd's positions at the current node
    var draws = 0
    var head = 0
    while (head < s.size) {
      val v = s(head)
      head += 1
      val from = inOff(v)
      val d = inOff(v + 1) - from
      val off = cdfOff(v)
      if (off >= 0) {
        val x = rng.nextDouble()
        var live = 0
        while (live < d && x >= cdf(off + live)) live += 1
        draws += 1
        // Floyd's algorithm over positions [0, d), as in `addRoots`.
        if (live > 1 && (picks == null || picks.length < live)) picks = new Array[Int](live)
        val first = d - live
        var j = first
        while (j < d) {
          var t = rng.nextInt(j + 1)
          var c = 0
          while (c < j - first && picks(c) != t) c += 1
          if (c < j - first) t = j
          if (live > 1) picks(j - first) = t
          val u = inSrc(from + t)
          if (inactive(u) && !s.contains(u)) s.add(u)
          j += 1
        }
        draws += live
      } else {
        var i = from
        while (i < from + d) {
          val u = inSrc(i)
          if (inactive(u) && !s.contains(u)) {
            draws += 1
            if (rng.nextDouble() < probs(inEdge(i))) s.add(u)
          }
          i += 1
        }
      }
    }
    draws
  }

  /** LT reverse BFS: v picks at most one live in-edge. Conditioned on v being
    * inactive, edges from active sources are excluded and the draw
    * renormalizes over {inactive in-edges} ∪ {none}: denominator
    * 1 − Σ_{active u} p(u,v) = Σ_{inactive u} p(u,v) + (1 − Σ_all p).
    * At a node whose d in-edges share one probability p, one uniform x picks
    * "none" or an in-edge by `CompactGraph.ltSlot`, the rule an LT realization
    * draws by too, redrawn while that edge's source is active; after
    * `LtRejections` draws the exact scan decides.
    * Each step draws from the exact conditional, so their mixture does too.
    */
  private def reverseLT(s: NodeQueue, g: CompactGraph, inactive: Array[Boolean],
                        rng: Rng.Stream): Int = {
    val (inOff, inEdge, inSrc, probs, sharedP) = (g.inOff, g.inEdge, g.inSrc, g.probs, g.sharedP)
    val Undrawn = -2
    var draws = 0
    var head = 0
    while (head < s.size) {
      val v = s(head)
      head += 1
      val from = inOff(v)
      val end = inOff(v + 1)
      val p = sharedP(v)
      var chosen = Undrawn // then the chosen source, or -1 for none
      if (p == p) {
        val d = end - from
        var tries = 0
        while (chosen == Undrawn && tries < LtRejections) {
          val t = CompactGraph.ltSlot(rng.nextDouble(), p, d)
          tries += 1
          if (t < 0) chosen = -1
          else {
            val u = inSrc(from + t)
            if (inactive(u)) chosen = u
          }
        }
        draws += tries
      }
      if (chosen == Undrawn) {
        var sumAll = 0.0
        var sumInactive = 0.0
        var i = from
        while (i < end) {
          val q = probs(inEdge(i))
          sumAll += q
          if (inactive(inSrc(i))) sumInactive += q
          i += 1
        }
        val denom = sumInactive + math.max(0.0, 1.0 - sumAll)
        if (denom > 0 && sumInactive > 0) {
          draws += 1
          val draw = rng.nextDouble() * denom
          var acc = 0.0
          i = from
          while (chosen < 0 && i < end) {
            val u = inSrc(i)
            if (inactive(u)) {
              acc += probs(inEdge(i))
              if (draw < acc) chosen = u
            }
            i += 1
          }
        }
      }
      if (chosen >= 0 && !s.contains(chosen)) s.add(chosen)
    }
    draws
  }
}

/** Per-round sampling context and sample pool: fixes the residual graph G_i
  * of `state` (§2.3), the model and the root mode for a round's doublings,
  * and counts the sets drawn so far, set i being stream index i, into their
  * coverage counts Λ(v). Tracks cumulative work for the efficiency
  * instrumentation.
  *
  * A context grows in one of two ways, fixed by its consumer: `growTo` keeps
  * every set (TRIM-B's greedy and ATEUC read them), `countTo` keeps only the
  * counts (TRIM and AdaptIM pick the argmax). Either way the calling thread
  * counts the sets it draws straight into `counts`, and each helper into its
  * own n-sized array, which the caller adds into `counts` once every
  * participant has drawn. `workers` caps the threads one call uses, the
  * caller included; a call made while another thread holds the helpers uses
  * the caller alone.
  *
  * Reads the node list and η_i from `state` once; the mask is `state.inactive`
  * itself, which Algorithm 1 changes only after selecting. Rejects a reached state.
  */
final class MRRSamplerCtx(
    state: ResidualState,
    val model: DiffusionModel,
    val vanillaRoots: Boolean,
    val seedBase: Long,
    val workers: Int = Runtime.getRuntime.availableProcessors()
) {
  require(!state.reached, s"the residual state has reached η = ${state.eta}: nothing is left to sample")
  require(workers >= 1, s"workers = $workers must be at least 1")
  val graph: CompactGraph = state.graph
  val inactive: Array[Boolean] = state.inactive
  val inactiveNodes: Array[Int] = state.inactiveNodes
  val etaI: Int = state.etaI

  /** The pre-broadcast form, which perfbench's trace probe calls; it goes at
    * the next benchmark change. It rebuilds the residual state from the mask
    * and η_i, and rejects a node list other than that state's.
    */
  def this(spark: SparkSession, bg: Broadcast[CompactGraph], inactive: Array[Boolean],
           inactiveNodes: Array[Int], etaI: Int, model: DiffusionModel, vanillaRoots: Boolean,
           seedBase: Long) = {
    this(MRRSamplerCtx.residual(bg.value, inactive, etaI), model, vanillaRoots, seedBase)
    require(java.util.Arrays.equals(inactiveNodes, this.inactiveNodes),
      "inactiveNodes must list the mask's inactive nodes in ascending order")
  }

  private val pool = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
  private var countOnly = false
  private var drawn = 0
  private var work = 0L
  private val coverage = new Array[Int](graph.n)
  if (model == DiffusionModel.LT) graph.requireLT()

  /** Random draws made by the reverse BFS of every set drawn by this context
    * (root draws not counted), summed over all `growTo`, `countTo`,
    * `generateLocal` and `generateSpark` calls.
    */
  def totalWork: Long = work

  def nI: Int = inactiveNodes.length

  /** The sets drawn so far, in stream order; only for a context grown by
    * `growTo`.
    */
  def sets: scala.collection.IndexedSeq[Array[Int]] = {
    require(!countOnly, "this context was grown by countTo, which keeps no sets; use growTo")
    pool
  }

  /** Λ(v) over the sets drawn so far, indexed by node id, kept up to date by
    * `growTo` and `countTo`. Shared, not copied: callers must not modify it.
    */
  def counts: Array[Int] = coverage

  /** Number of sets drawn so far. */
  def totalSamples: Long = drawn

  /** Draw stream indices [totalSamples, size) into the pool and count them
    * into `counts`; no-op if the pool already holds `size` sets.
    */
  def growTo(size: Long): Unit = {
    require(!countOnly, "growTo on a context grown by countTo, which kept no sets")
    val count = newSets(size)
    if (count > 0) {
      val fresh = new Array[Array[Int]](count)
      draw(drawn, count, fresh, coverage)
      pool ++= fresh
      drawn += count
    }
  }

  /** Count stream indices [totalSamples, size) into `counts` without keeping
    * the sets; no-op if `size` sets were drawn already. `sets` then fails.
    */
  def countTo(size: Long): Unit = {
    require(pool.isEmpty, "countTo on a context grown by growTo, whose pool would miss sets")
    countOnly = true
    val count = newSets(size)
    if (count > 0) {
      draw(drawn, count, null, coverage)
      drawn += count
    }
  }

  private def newSets(size: Long): Int = {
    require(size <= Int.MaxValue, s"sample pool of $size sets exceeds Int range")
    size.toInt - drawn
  }

  /** Sets `[from, from + count)` on the driver, drawn as `growTo` draws
    * them but outside the pool: `counts` and `totalSamples` stay as they are.
    */
  def generateLocal(from: Long, count: Int): IndexedSeq[Array[Int]] = {
    val out = new Array[Array[Int]](count)
    draw(from, count, out, null)
    ArraySeq.unsafeWrapArray(out)
  }

  /** Draw sets `[from, from + count)` on the driver, set i into
    * `out(i - from)` unless `out` is null, and count them into `cover`
    * unless it is null. The caller and up to `workers` − 1 helpers of
    * `HelperPool` (at most one participant per `MinBlock` sets, and no
    * helper while another caller holds them), each with its thread's
    * `NodeQueue`, claim chunks of indices from a shared cursor until the
    * range is used up. A chunk is half of what is left per participant, so
    * chunks shrink to single sets at the end and the participants finish
    * within about one set of each other, however uneven the sets and however
    * late a helper starts. The caller counts into `cover`, each helper into
    * its thread's count array, which the caller adds into `cover` and zeroes
    * once every participant has drawn, also when one failed. Counts and work
    * are summed over the participants, so the output does not depend on the
    * schedule.
    */
  private def draw(from: Long, count: Int, out: Array[Array[Int]], cover: Array[Int]): Unit = {
    val g = graph
    val participants = math.max(1, math.min(workers, count / MRRSampler.MinBlock))
    val next = new AtomicInteger(0)
    val draws = new AtomicLong(0L)
    val helperCounts = if (cover == null) null else new Array[Array[Int]](participants)
    def drain(p: Int): Unit = {
      val s = MRRSampler.queue(g.n)
      val local =
        if (cover == null || p == 0) cover
        else { helperCounts(p) = MRRSampler.counts(g.n); helperCounts(p) }
      var drawn = 0L
      var i = next.get()
      while (i < count) {
        val end = i + math.max(1, (count - i) / (2 * participants))
        if (next.compareAndSet(i, end)) {
          while (i < end) {
            drawn += MRRSampler.sampleInto(
              s, g, inactive, inactiveNodes, etaI, model, vanillaRoots, seedBase, from + i)
            if (out != null) out(i) = s.result()
            if (local != null) s.countInto(local)
            i += 1
          }
        }
        i = next.get()
      }
      draws.addAndGet(drawn)
    }
    try HelperPool.run(participants - 1)(drain)
    finally if (cover != null) for (c <- helperCounts if c != null) {
      var v = 0
      while (v < g.n) { cover(v) += c(v); c(v) = 0; v += 1 }
    }
    work += draws.get
  }

  /** RDD fan-out on the running `SparkContext`: the graph, mask and node
    * list are broadcast for this call, every task generates its slice of the
    * sample-index range with one `NodeQueue` per partition, and the three
    * broadcasts are destroyed afterwards. The reference `generateLocal` is
    * checked against.
    */
  def generateSpark(from: Long, count: Int): IndexedSeq[Array[Int]] = {
    val sc = SparkContext.getOrCreate()
    val (graphB, inactiveB, nodesB) =
      (sc.broadcast(graph), sc.broadcast(inactive), sc.broadcast(inactiveNodes))
    val (etaI0, model0, vanilla0, seed0) = (etaI, model, vanillaRoots, seedBase)
    val results =
      try sc
        .range(from, from + count, numSlices = sc.defaultParallelism)
        .mapPartitions { idxs =>
          val g = graphB.value
          val s = new NodeQueue(g.n)
          idxs.map { idx =>
            val draws = MRRSampler.sampleInto(
              s, g, inactiveB.value, nodesB.value, etaI0, model0, vanilla0, seed0, idx)
            (s.result(), draws.toLong)
          }
        }
        .collect()
      finally { graphB.destroy(); inactiveB.destroy(); nodesB.destroy() }
    work += results.iterator.map(_._2).sum
    // `range` slices the indices in order and `collect` keeps partition
    // order, so the sets come back in stream order.
    ArraySeq.unsafeWrapArray(results.map(_._1))
  }
}

object MRRSamplerCtx {

  /** The residual state whose mask is `inactive` and whose η_i is `etaI`. */
  private def residual(g: CompactGraph, inactive: Array[Boolean], etaI: Int): ResidualState = {
    require(inactive.length == g.n, s"inactive has ${inactive.length} entries for a graph of n = ${g.n} nodes")
    val active = Array.newBuilder[Int]
    var v = 0
    while (v < g.n) { if (!inactive(v)) active += v; v += 1 }
    val nodes = active.result()
    val state = new ResidualState(g, nodes.length + etaI)
    state.activate(nodes)
    state
  }
}
