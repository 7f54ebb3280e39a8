package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark job counters per tag, gathered by a `SparkListener`. A caller tags
  * the jobs its thread submits with `SparkCounters.tag` (a local property),
  * so each job is attributed to the span that was open when it started.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  final class Tally {
    var jobs = 0
    var tasks = 0
    var jobMillis = 0L
    var resultBytes = 0L
  }

  private val byTag = mutable.Map.empty[String, Tally]
  private val jobTag = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageTag = mutable.Map.empty[Int, String]
  @volatile private var drained = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).getOrElse("")
    jobTag(e.jobId) = tag
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageTag(_) = tag)
    byTag.getOrElseUpdate(tag, new Tally).jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = byTag.getOrElseUpdate(stageTag.getOrElse(e.stageId, ""), new Tally)
    t.tasks += 1
    if (e.taskMetrics != null) t.resultBytes += e.taskMetrics.resultSize
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    val tag = jobTag.getOrElse(e.jobId, "")
    byTag.getOrElseUpdate(tag, new Tally).jobMillis += e.time - jobStart.getOrElse(e.jobId, e.time)
    if (tag == DrainTag) drained = true
  }

  /** Wait until every event of jobs already run has reached this listener:
    * run one tagged job and wait for its end event, which the listener bus
    * delivers after all earlier events.
    */
  def drain(sc: SparkContext): Unit = {
    drained = false
    tagged(sc, DrainTag)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!drained) {
      require(System.nanoTime() < deadline, "Spark listener events did not arrive within 30 s")
      Thread.sleep(5)
    }
  }

  /** (jobs, tasks, job seconds, result bytes) over the given tags. */
  def totals(tags: Iterable[String]): (Int, Int, Double, Long) = synchronized {
    val ts = tags.flatMap(byTag.get)
    (ts.map(_.jobs).sum, ts.map(_.tasks).sum, ts.map(_.jobMillis).sum / 1e3, ts.map(_.resultBytes).sum)
  }
}

object SparkCounters {
  val TagKey = "perfbench.tag"
  private val DrainTag = "perfbench.drain"

  /** Run `body` with the jobs this thread submits tagged `tag`. */
  def tagged[A](sc: SparkContext, tag: String)(body: => A): A = {
    sc.setLocalProperty(TagKey, tag)
    try body finally sc.setLocalProperty(TagKey, null)
  }
}
