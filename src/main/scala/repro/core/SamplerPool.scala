package repro.core

import repro.graph.NodeQueue

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicLong, AtomicReference}
import java.util.concurrent.locks.LockSupport

/** The driver sampler's helper threads: at most cores − 1 daemon threads,
  * started on first use and kept for the life of the JVM, each owning a
  * `NodeQueue` and, once it has counted, an n-sized count array. TRIM calls
  * the sampler several times per round, tens of microseconds apart, and a
  * fresh fork-join per call cost more than a small call's sampling, so a
  * helper that finishes a job spins for `SpinNanos` waiting for the next
  * one, then parks: the pool takes no CPU between solves.
  *
  * One caller at a time holds the helpers; a caller that finds them held
  * samples alone. The output never depends on how many helpers a call got.
  */
private[core] object SamplerPool {

  /** How long an idle helper waits for its next job before it parks. */
  private val SpinNanos = 1000000L

  private val pool = new Array[Helper](Runtime.getRuntime.availableProcessors() - 1)
  /** Helpers started so far: `pool(0 until started)`. */
  @volatile private var started = 0
  private val held = new AtomicBoolean(false)

  /** Every helper started so far. */
  def threads: Seq[Thread] = pool.take(started).toSeq

  /** Run `drain` on the calling thread and on up to `helpers` pool threads,
    * and return the sum of what they return. `drain(queue, counts)` claims
    * work from a shared cursor and counts every set it draws into `counts`:
    * the caller into `cover`, each helper into its own array, which the
    * caller adds into `cover` and zeroes once every participant has drained
    * (with `cover` null nothing is counted). A failure in any participant is
    * thrown after that merge, so the helpers' arrays are zero either way.
    */
  def run(helpers: Int, n: Int, cover: Array[Int], own: NodeQueue,
          drain: (NodeQueue, Array[Int]) => Long): Long = {
    val k = math.min(helpers, pool.length)
    if (k <= 0 || !held.compareAndSet(false, true)) return drain(own, cover)
    try {
      while (started < k) { pool(started) = new Helper(started); pool(started).start(); started += 1 }
      val job = new Job(k, n, cover, drain)
      for (i <- 0 until k) pool(i).post(job)
      job.sample(own, cover)
      // A helper that has not taken the job yet is not waited for.
      for (i <- 0 until k if pool(i).mailbox.compareAndSet(job, null)) job.draining.decrementAndGet()
      var spins = 0
      while (job.draining.get != 0) { if (spins < 1000) Thread.onSpinWait() else Thread.`yield`(); spins += 1 }
      for (c <- job.counts if c != null) {
        var v = 0
        while (v < n) { cover(v) += c(v); c(v) = 0; v += 1 }
      }
      val failure = job.failure.get
      if (failure != null) throw failure
      job.work.get
    } finally held.set(false)
  }

  /** One call: its helpers still drawing, their counts, its work. */
  private final class Job(helpers: Int, n: Int, cover: Array[Int],
                          drain: (NodeQueue, Array[Int]) => Long) {
    /** Helpers still drawing, those not yet skipped included. */
    val draining = new AtomicInteger(helpers)
    /** Helper i's counts, set before it stops drawing if it joined. */
    val counts = new Array[Array[Int]](helpers)
    val work = new AtomicLong(0L)
    val failure = new AtomicReference[Throwable]()

    def sample(q: NodeQueue, into: Array[Int]): Unit =
      try work.addAndGet(drain(q, into))
      catch { case e: Throwable => failure.compareAndSet(null, e) }

    def help(h: Helper): Unit =
      try {
        if (cover != null) counts(h.id) = h.countsFor(n)
        sample(h.queueFor(n), counts(h.id))
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
      finally draining.decrementAndGet()
  }

  /** `pool(id)`, and every job's `id`-th helper. */
  private final class Helper(val id: Int) extends Thread(s"mrr-sampler-$id") {
    setDaemon(true)

    val mailbox = new AtomicReference[Job]()
    @volatile private var parked = false
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

    def post(job: Job): Unit = {
      mailbox.set(job)
      if (parked) LockSupport.unpark(this)
    }

    override def run(): Unit = {
      var since = System.nanoTime()
      while (true) {
        val job = mailbox.get()
        if (job != null) {
          if (mailbox.compareAndSet(job, null)) {
            job.help(this)
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
