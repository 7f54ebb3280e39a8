package repro.core

import repro.graph.NodeQueue

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference}
import java.util.concurrent.locks.LockSupport

/** The driver sampler's helper threads: at most cores − 1 daemon threads,
  * started on first use and kept for the life of the JVM. Each owns a
  * `NodeQueue` and an n-sized count array, so a call allocates neither.
  *
  * TRIM calls the sampler several times per round, tens of microseconds
  * apart, and a fresh fork-join per call cost more than a small call's
  * sampling. A helper that finishes a job therefore spins for `SpinNanos`
  * waiting for the next one, then parks, so the pool takes no CPU between
  * solves.
  *
  * Concurrent callers share the pool: each takes the helpers that are idle,
  * and a caller that finds none samples alone. The output never depends on
  * how many helpers a call got.
  */
private[core] object SamplerPool {

  /** How long an idle helper waits for its next job before it parks. */
  private val SpinNanos = 1000000L

  /** Nodes per merge stripe: 16 KB of each count array. */
  private val Stripe = 4096

  private val maxHelpers = Runtime.getRuntime.availableProcessors() - 1
  private val idle = new java.util.ArrayDeque[Helper]()
  private val started = scala.collection.mutable.ArrayBuffer.empty[Helper]

  /** Every helper started so far. */
  def threads: Seq[Thread] = synchronized(started.toList)

  /** Run `drain` on the calling thread and on up to `helpers` pool threads,
    * and return the sum of what they return. `drain(queue, counts)` claims
    * work from a cursor it shares with the other participants and counts
    * every set it draws into `counts`. The caller counts into `cover`
    * directly; each helper counts into its own array, and once every
    * participant has drained, they all add the helpers' arrays into `cover`
    * stripe by stripe, zeroing them as they go. With `cover` null nothing
    * is counted. A failure in any participant is thrown here, after the
    * merge, so the helpers' arrays are zero again either way.
    */
  def run(helpers: Int, n: Int, cover: Array[Int], own: NodeQueue,
          drain: (NodeQueue, Array[Int]) => Long): Long = {
    val hs = if (helpers > 0) acquire(helpers) else Array.empty[Helper]
    if (hs.isEmpty) return drain(own, cover)
    val job = new Job(hs.length, n, cover, drain)
    var i = 0
    while (i < hs.length) { hs(i).post(job, i); i += 1 }
    job.sample(own, cover)
    // A helper that has not taken the job yet is not waited for.
    i = 0
    while (i < hs.length) {
      if (hs(i).mailbox.compareAndSet(job, null)) job.draining.decrementAndGet()
      i += 1
    }
    job.finish()
    // Once every stripe is merged no helper touches `cover`, `out` or its
    // own counts for this job again, so it may take the next one.
    await(job.merged.get == job.stripes)
    release(hs)
    val failure = job.failure.get
    if (failure != null) throw failure
    job.work.get
  }

  private def acquire(k: Int): Array[Helper] = synchronized {
    val out = scala.collection.mutable.ArrayBuffer.empty[Helper]
    while (out.length < k && !idle.isEmpty) out += idle.pop()
    while (out.length < k && started.length < maxHelpers) {
      val h = new Helper(started.length)
      started += h
      h.start()
      out += h
    }
    out.toArray
  }

  private def release(hs: Array[Helper]): Unit = synchronized { hs.foreach(idle.push) }

  /** Spin until `done`, yielding the core after the first thousand tries. */
  private def await(done: => Boolean): Unit = {
    var spins = 0
    while (!done) {
      if (spins < 1000) { Thread.onSpinWait(); spins += 1 } else Thread.`yield`()
    }
  }

  /** One call: its participants, its count arrays and its merge cursor. */
  private final class Job(helpers: Int, n: Int, cover: Array[Int],
                          drain: (NodeQueue, Array[Int]) => Long) {
    /** Participants still drawing, helpers not yet skipped included. */
    val draining = new AtomicInteger(helpers + 1)
    val stripes: Int = if (cover == null) 0 else (n + Stripe - 1) / Stripe
    /** Stripes merged so far. */
    val merged = new AtomicInteger(0)
    /** Each joined helper's counts, set before it stops drawing. */
    val counts = new Array[Array[Int]](helpers)
    val work = new AtomicLong(0L)
    val failure = new AtomicReference[Throwable]()
    private val nextStripe = new AtomicInteger(0)

    def sample(q: NodeQueue, into: Array[Int]): Unit =
      try work.addAndGet(drain(q, into))
      catch { case e: Throwable => failure.compareAndSet(null, e) }

    /** Stop drawing, wait for every other participant to stop, then merge
      * stripes until none is left.
      */
    def finish(): Unit = {
      draining.decrementAndGet()
      await(draining.get == 0)
      var stripe = nextStripe.getAndIncrement()
      while (stripe < stripes) {
        val lo = stripe * Stripe
        val hi = math.min(n, lo + Stripe)
        var h = 0
        while (h < helpers) {
          val c = counts(h)
          if (c != null) {
            var v = lo
            while (v < hi) { cover(v) += c(v); c(v) = 0; v += 1 }
          }
          h += 1
        }
        merged.incrementAndGet()
        stripe = nextStripe.getAndIncrement()
      }
    }

    def help(h: Helper, index: Int): Unit = {
      try {
        if (cover != null) counts(index) = h.countsFor(n)
        sample(h.queueFor(n), counts(index))
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
      finish()
    }
  }

  private final class Helper(id: Int) extends Thread(s"mrr-sampler-$id") {
    setDaemon(true)

    val mailbox = new AtomicReference[Job]()
    @volatile private var parked = false
    /** This helper's index in the job it is posted to; written before the post. */
    private var index = 0
    private var queue: NodeQueue = _
    private var queueN = -1
    private var counts: Array[Int] = _

    def queueFor(n: Int): NodeQueue = {
      if (queueN != n) { queue = new NodeQueue(n); queueN = n }
      queue
    }

    /** A zeroed n-sized array: every merge zeroes what it adds. */
    def countsFor(n: Int): Array[Int] = {
      if (counts == null || counts.length != n) counts = new Array[Int](n)
      counts
    }

    def post(job: Job, i: Int): Unit = {
      index = i
      mailbox.set(job)
      if (parked) LockSupport.unpark(this)
    }

    override def run(): Unit = {
      var since = System.nanoTime()
      while (true) {
        val job = mailbox.get()
        if (job != null) {
          if (mailbox.compareAndSet(job, null)) {
            job.help(this, index)
            since = System.nanoTime()
          }
        } else if (System.nanoTime() - since < SpinNanos) Thread.onSpinWait()
        else {
          parked = true
          if (mailbox.get() == null) LockSupport.park(this)
          parked = false
          since = System.nanoTime()
        }
      }
    }
  }
}
