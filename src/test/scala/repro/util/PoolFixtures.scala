package repro.util

import java.util.concurrent.CountDownLatch

/** Runs code while `HelperPool`'s helpers are held by another thread, so
  * that every pool job it starts runs on its caller alone: one participant.
  */
object PoolFixtures {

  def whileHeld[A](f: => A): A = {
    val holding = new CountDownLatch(1)
    val release = new CountDownLatch(1)
    val holder = new Thread(() => HelperPool.run(HelperPool.size) { p =>
      if (p == 0) { holding.countDown(); release.await() }
    })
    holder.setDaemon(true)
    holder.start()
    holding.await()
    try f
    finally { release.countDown(); holder.join() }
  }
}
