package repro.util

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicReference}
import java.util.concurrent.locks.LockSupport

/** The driver's warm helper threads, shared by the mRR sampler and
  * observation's forward traversal: at most cores − 1 daemon threads,
  * started on first use and kept for the life of the JVM. Both callers run
  * many jobs per solve, tens of microseconds apart, and a fresh fork-join
  * per job cost more than a small job's work, so a helper that finishes a
  * job spins for `SpinNanos` waiting for the next one, then parks: the pool
  * takes no CPU between solves.
  *
  * One caller at a time holds the helpers; a caller that finds them held
  * runs its job alone. The pool knows nothing of a job's data: each caller
  * shares its work out through its own cursor and keeps its own per-thread
  * scratch, and its output must not depend on how many helpers joined.
  */
private[repro] object HelperPool {

  /** How long an idle helper waits for its next job before it parks. */
  private val SpinNanos = 1000000L

  private val pool = new Array[Helper](Runtime.getRuntime.availableProcessors() - 1)
  /** Helpers started so far: `pool(0 until started)`. */
  @volatile private var started = 0
  private val held = new AtomicBoolean(false)

  /** Most helpers one job can get: cores − 1. */
  def size: Int = pool.length

  /** Every helper started so far. */
  def threads: Seq[Thread] = pool.take(started).toSeq

  /** Run participant 0 of `part` on the calling thread and participants
    * 1 to k on k = min(`helpers`, `size`) pool threads, and return once every
    * helper that started its participant has returned. A helper that has not
    * started by the time the caller's participant returns is not waited for
    * and never runs it, so a job's participant 0 must return only when no
    * work is left. A caller that finds the helpers held runs participant 0
    * alone. A failure in any participant is thrown once every started one
    * has returned.
    */
  def run(helpers: Int)(part: Int => Unit): Unit = {
    val k = math.min(helpers, pool.length)
    if (k <= 0 || !held.compareAndSet(false, true)) { part(0); return }
    try {
      while (started < k) { pool(started) = new Helper(started); pool(started).start(); started += 1 }
      val job = new Job(k, part)
      for (i <- 0 until k) pool(i).post(job)
      job.run(0)
      for (i <- 0 until k if pool(i).mailbox.compareAndSet(job, null)) job.running.decrementAndGet()
      var spins = 0
      while (job.running.get != 0) { if (spins < 1000) Thread.onSpinWait() else Thread.`yield`(); spins += 1 }
      val failure = job.failure.get
      if (failure != null) throw failure
    } finally held.set(false)
  }

  /** One job: its helpers still running, and its first failure. */
  private final class Job(helpers: Int, part: Int => Unit) {
    /** Helpers still running, those not yet skipped included. */
    val running = new AtomicInteger(helpers)
    val failure = new AtomicReference[Throwable]()

    def run(participant: Int): Unit =
      try part(participant)
      catch { case e: Throwable => failure.compareAndSet(null, e) }

    def help(h: Helper): Unit =
      try run(h.id + 1) finally running.decrementAndGet()
  }

  /** `pool(id)`, and participant id + 1 of every job it takes. */
  private final class Helper(val id: Int) extends Thread(s"repro-helper-$id") {
    setDaemon(true)

    val mailbox = new AtomicReference[Job]()
    @volatile private var parked = false

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
