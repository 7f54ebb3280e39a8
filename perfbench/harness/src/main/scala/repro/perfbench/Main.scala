package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.graph.{CompactGraph, GraphGen}
import scala.collection.mutable.ArrayBuffer

/** A figure with its unit, as printed in the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** What the traced run reports back to `Main`. */
final case class TraceResult(metrics: Seq[Metric], attempted: Int, failed: Int)

/** The traced run lives in the `trace` project, which calls layer APIs; it is
  * loaded by name so that a change to those APIs breaks only `--trace 1`.
  */
trait TracedRun {

  /** Trace solves from `solves`, cycling, until `seconds` have passed.
    * `untraced(i)` runs solve i through the stable entry point, checked, and
    * returns its outcome and wall seconds: the twin a traced solve is
    * compared with.
    */
  def run(env: Env, solves: IndexedSeq[Solve], untraced: Int => (Outcome, Double),
          seconds: Double): TraceResult
}

/** The benchmark's single command:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * A closed loop of one caller: each solve starts when the previous returns.
  * Set-up runs `SetupRepeats` times and reports its median. An untimed
  * warm-up runs the head of the solve list for `WarmupSeconds`, which warms
  * the JIT and the workload's own paths (the RDD fan-out included, where the
  * workload uses it). The timed phase then cycles through the list until
  * `--seconds` have passed and every solve has run; a solve that runs again
  * must reproduce its first outcome.
  */
object Main {
  val SetupRepeats = 3
  val WarmupSeconds = 6.0
  val TracedRunClass = "repro.perfbench.trace.LayerTrace"

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parseArgs(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown arguments: ${unknown.mkString(", ")}")
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = get("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(get("workload"), get("seed").toLong, seconds, trace)
  }

  final case class SetupTimes(session: Double, gen: Double, broadcast: Double) {
    def total: Double = session + gen + broadcast
  }

  def startSpark(cores: Int): SparkSession = {
    val b = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", 16)
    sys.props.get("perfbench.workDir").foreach { d =>
      b.config("spark.local.dir", s"$d/spark-local").config("spark.sql.warehouse.dir", s"$d/warehouse")
    }
    b.getOrCreate()
  }

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** SparkSession start, `GraphGen.dataset` (generation and CSR compile) and
    * the graph broadcast.
    */
  def setup(cores: Int, dataset: String): (Env, SetupTimes) = {
    val (spark, session) = seconds(startSpark(cores))
    spark.sparkContext.setLogLevel("WARN")
    val (g, gen) = seconds(GraphGen.dataset(spark, dataset, Workloads.Scale, Workloads.GraphSeed))
    val (bg, broadcast) = seconds(spark.sparkContext.broadcast(g))
    (Env(spark, g, bg), SetupTimes(session, gen, broadcast))
  }

  def fingerprint(g: CompactGraph): Int = {
    import java.util.Arrays.{hashCode => h}
    Seq(g.n, h(g.srcs), h(g.dsts), h(g.probs)).hashCode
  }

  private def attempt(s: Solve, env: Env): Outcome = {
    val t0 = System.nanoTime()
    val o =
      try s.run(env)
      catch { case e: Exception => Outcome.failed(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    Console.err.println(f"[perfbench] solve ${s.label} ${(System.nanoTime() - t0) / 1e9}%.3f s " +
      s"seeds=${o.seeds.size} sets=${o.samples} reached=${o.reachedPairs}/${o.pairs}")
    o
  }

  /** A repeated solve must give the reference's seeds and sample count. */
  def sameAsReference(o: Outcome, ref: Outcome): Seq[String] =
    if (o.seeds == ref.seeds && o.samples == ref.samples) Nil
    else Seq(s"repetition differs: ${o.seeds.size} seeds/${o.samples} sets vs " +
             s"${ref.seeds.size} seeds/${ref.samples} sets")

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parseArgs(argv.toSeq))
      catch {
        case e: Throwable =>
          Console.err.println(s"perfbench: FAILED: $e")
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  def run(args: Args): Int = {
    val workload = Workloads.byName(args.workload)
    val cores = Runtime.getRuntime.availableProcessors
    val log = (s: String) => Console.err.println(s"[perfbench] $s")

    // Set-up, repeated; every repetition must compile the identical graph.
    val setups = ArrayBuffer.empty[(Env, SetupTimes)]
    (1 to SetupRepeats).foreach { _ =>
      setups.lastOption.foreach(_._1.spark.stop())
      setups += setup(cores, workload.dataset)
      val t = setups.last._2
      log(f"setup ${t.total}%.3f s (session ${t.session}%.3f, graph ${t.gen}%.3f, broadcast ${t.broadcast}%.3f)")
    }
    val env = setups.last._1
    val fingerprints = setups.map(s => fingerprint(s._1.graph)).distinct
    require(fingerprints.size == 1, "set-up repetitions compiled different graphs")

    val inputs = workload.inputs ++ Seq(
      "workload_seed" -> args.seed.toString, "n" -> env.graph.n.toString, "m" -> env.graph.m.toString,
      "nproc" -> cores.toString, "master" -> env.spark.sparkContext.master,
      "xmx_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
      "spark" -> env.spark.version, "java" -> System.getProperty("java.version"),
      "seconds" -> args.seconds.toString, "trace" -> (if (args.trace) "1" else "0"))
    inputs.foreach { case (k, v) => println(s"input $k = $v") }

    val solves = workload.solves(args.seed)
    var attempted = 0
    var failed = 0
    def record(s: Solve, o: Outcome): Outcome = {
      attempted += 1
      if (!o.ok) {
        failed += 1
        o.problems.foreach(p => log(s"CHECK FAILED ${s.label}: $p"))
      }
      o
    }

    // Every solve's first outcome is its reference; each repetition must match it.
    val refs = new Array[Outcome](solves.size)
    def runChecked(i: Int): (Outcome, Double) = {
      val (o, t) = seconds(attempt(solves(i), env))
      val repeat = if (o.ok && refs(i) != null) sameAsReference(o, refs(i)) else Nil
      if (refs(i) == null) refs(i) = o
      (record(solves(i), o.copy(problems = o.problems ++ repeat)), t)
    }

    // Untimed warm-up over the head of the list, which the timed phase repeats.
    val w0 = System.nanoTime()
    var warmed = 0
    while (warmed < solves.size && (System.nanoTime() - w0) / 1e9 < WarmupSeconds) {
      runChecked(warmed)
      warmed += 1
    }
    log(f"warm-up $warmed solves ${(System.nanoTime() - w0) / 1e9}%.3f s")

    val metrics =
      if (!args.trace) {
        // Cycle through the list until --seconds have passed and every solve ran.
        val passSeconds = ArrayBuffer.empty[Double]
        val solveSeconds = ArrayBuffer.empty[Double]
        // Set-up leaves dead SparkSessions and graphs in the old generation;
        // collect them so post-GC heap readings show the timed phase's own.
        System.gc()
        JvmCounters.LiveHeapPeak.arm()
        val t0 = System.nanoTime()
        var done = 0
        var pass = 0.0
        while (done < solves.size || (System.nanoTime() - t0) / 1e9 < args.seconds) {
          val (_, t) = runChecked(done % solves.size)
          solveSeconds += t
          pass += t
          done += 1
          if (done % solves.size == 0) { passSeconds += pass; log(f"pass $pass%.3f s"); pass = 0.0 }
        }
        JvmCounters.LiveHeapPeak.disarm()
        val (peak, gcs) = JvmCounters.LiveHeapPeak.result
        val heapPeak = if (gcs > 0) peak else JvmCounters.heapUsedBytes()
        println(s"timed passes = ${passSeconds.size}, timed solves = ${solveSeconds.size}, " +
                s"collections = $gcs")
        val firsts = refs.toSeq
        Seq(
          Metric("wall_s", Stats.median(passSeconds), "s"),
          Metric("solve_s_p50", Stats.median(solveSeconds), "s"),
          Metric("setup_s", Stats.median(setups.map(_._2.total)), "s"),
          Metric("heap_live_peak_mb", heapPeak / 1048576.0, "MB"),
          Metric("seeds_mean", Stats.mean(firsts.map(_.seeds.size.toDouble)), "seeds"),
          Metric("reached_frac",
                 Stats.ratio(firsts.map(_.reachedPairs).sum, firsts.map(_.pairs).sum), "ratio"),
          Metric("passed_frac", 1.0 - failed.toDouble / attempted, "ratio"),
        )
      } else {
        val tracer = Class.forName(TracedRunClass).getDeclaredConstructor().newInstance()
          .asInstanceOf[TracedRun]
        val tr = tracer.run(env, solves, runChecked, args.seconds)
        attempted += tr.attempted
        failed += tr.failed
        Seq(
          Metric("spark.session_s", Stats.median(setups.map(_._2.session)), "s"),
          Metric("graph.gen_s", Stats.median(setups.map(_._2.gen)), "s"),
          Metric("graph.broadcast_s", Stats.median(setups.map(_._2.broadcast)), "s"),
        ) ++ tr.metrics
      }

    metrics.foreach(m => println(s"metric ${m.name} = ${m.value} ${m.unit}"))
    val correct = failed == 0
    env.spark.stop()
    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map(m =>
        m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    )))
    if (correct) 0 else { log(s"FAILED: $failed of $attempted solves failed a check"); 1 }
  }
}
