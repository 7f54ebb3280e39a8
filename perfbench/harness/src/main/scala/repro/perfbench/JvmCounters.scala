package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import scala.jdk.CollectionConverters._

/** JVM counters read from outside the program: allocated bytes per thread,
  * collector time, and the heap in use right after each collection.
  */
object JvmCounters {

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  threads.setThreadAllocatedMemoryEnabled(true)

  /** Allocated bytes of every live thread, by thread id. Spark's task
    * threads are pooled, so a solve's tasks run on threads that outlive it.
    */
  def allocatedByThread(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated between two `allocatedByThread` snapshots; a thread
    * born in between counts from zero.
    */
  def allocatedSince(before: Map[Long, Long], after: Map[Long, Long]): Long =
    after.iterator.map { case (id, b) => math.max(0L, b - before.getOrElse(id, 0L)) }.sum

  /** Total collection time of all collectors, in milliseconds. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def heapUsedBytes(): Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  /** Largest heap in use right after any collection while armed. */
  object LiveHeapPeak extends NotificationListener {
    private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
    @volatile private var armed = false
    @volatile private var peak = 0L
    @volatile private var collections = 0

    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(this, null, null)
      case _ =>
    }

    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        synchronized {
          peak = math.max(peak, used)
          collections += 1
        }
      }

    def arm(): Unit = synchronized { peak = 0L; collections = 0; armed = true }
    def disarm(): Unit = armed = false

    /** The peak and the number of collections it was taken over. */
    def result: (Long, Int) = synchronized((peak, collections))
  }
}
