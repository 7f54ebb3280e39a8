package repro.perfbench.trace

import repro.baselines.Ateuc
import repro.core.{MRRSamplerCtx, ResidualState}
import repro.diffusion.Realization
import repro.perfbench._
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** The traced run. It drives Algorithm 1's round loop itself through public
  * calls (ResidualState, MRRSamplerCtx, Selector.select,
  * Realization.forwardReachable, ResidualState.activate) with a span around
  * each call, under per-solve and per-round parents. Spark jobs are tagged
  * with the enclosing `select` span. After each round, outside the round's
  * spans, the sampler and coverage probes replay that round's exact inputs.
  *
  * Every traced solve follows an untraced twin of the same solve; the traced
  * loop must return the twin's seeds and sample count exactly, and the ratio
  * of their wall times is the tracing overhead.
  */
final class LayerTrace extends TracedRun {
  import LayerTrace._

  def run(env: Env, solves: IndexedSeq[Solve], untraced: Int => (Outcome, Double),
          seconds: Double): TraceResult = {
    val sc = env.spark.sparkContext
    val counters = new SparkCounters
    sc.addSparkListener(counters)
    val tracer = new Tracer()
    val tot = new Totals
    var attempted, failed = 0

    val t0 = System.nanoTime()
    var i = 0
    while (i == 0 || (System.nanoTime() - t0) / 1e9 < seconds) {
      val idx = i % solves.size
      val (twin, twinS) = untraced(idx)
      val problems = solves(idx) match {
        case s: AdaptiveSolve => adaptive(env, tracer, tot, s, twin)
        case s: AteucSolve => ateuc(env, tracer, tot, s, twin)
      }
      tot.twinS += twinS
      tot.solves += 1
      attempted += 1
      if (problems.nonEmpty) {
        failed += 1
        problems.foreach(p => Console.err.println(s"[perfbench] CHECK FAILED traced ${solves(idx).label}: $p"))
      }
      i += 1
    }
    counters.drain(sc)
    sc.removeSparkListener(counters)
    TraceResult(metrics(tracer.spans, tot, counters), attempted, failed)
  }

  private def timedAlloc[A](tot: Totals)(body: => A): A = {
    val a0 = JvmCounters.allocatedByThread()
    val g0 = JvmCounters.gcMillis()
    val a = body
    tot.allocBytes += JvmCounters.allocatedSince(a0, JvmCounters.allocatedByThread())
    tot.gcMs += JvmCounters.gcMillis() - g0
    a
  }

  /** Algorithm 1, as `Asti.run` runs it, with spans and probes. */
  private def adaptive(env: Env, tracer: Tracer, tot: Totals, s: AdaptiveSolve,
                       twin: Outcome): Seq[String] = {
    val g = env.graph
    val eta = s.eta(g)
    val problems = ArrayBuffer.empty[String]
    var seeds = Vector.empty[Int]
    var samples = 0L
    var probeS = 0.0
    val solveStart = System.nanoTime()
    tracer.span("solve") { _ =>
      val state = tracer.span("residual")(_ => new ResidualState(g, eta))
      val real = new Realization(g, s.model, s.realizationSeed)
      var round = 0
      while (!state.reached) {
        round += 1
        val seedBase = Rng.state(s.selectorSeed, round)
        val mask = state.inactive.clone()
        val r0 = System.nanoTime()
        val (ctx, sel, activated) = timedAlloc(tot)(tracer.span("round") { _ =>
          val ctx = tracer.span("residual") { _ =>
            new MRRSamplerCtx(env.spark, env.bg, state.inactive, state.inactiveNodes, state.etaI,
                              s.model, s.selector.vanillaRoots, seedBase)
          }
          val sel = tracer.span("select") { id =>
            tot.selectTags += id.toString
            SparkCounters.tagged(env.spark.sparkContext, id.toString)(s.selector.select(ctx, s.eps))
          }
          require(sel.seeds.nonEmpty, s"selector ${s.selector.name} returned no seeds")
          val activated = tracer.span("observe")(_ => real.forwardReachable(sel.seeds, state.inactive))
          tracer.span("residual")(_ => state.activate(activated))
          (ctx, sel, activated)
        })
        val roundS = (System.nanoTime() - r0) / 1e9
        seeds ++= sel.seeds
        samples += sel.samples

        val p0 = System.nanoTime()
        tracer.span("probe") { id =>
          val in = RoundInputs(mask, ctx.inactiveNodes, ctx.etaI, s.model, s.selector.vanillaRoots, seedBase)
          val (sizes, cap) = CoverageProbe.trimSizes(s.selector, ctx.nI, ctx.etaI, s.eps, sel.iterations)
          if (sizes.last != sel.samples)
            problems += s"round $round: doubling sizes end at ${sizes.last}, select drew ${sel.samples}"
          val sp = SamplerProbe.replay(env.spark, env.bg, in, sel.samples.toInt, s"probe-$id")
          if (!sp.identical) problems += s"round $round: driver and Spark pools differ"
          val cp = CoverageProbe.trim(s.selector, g.n, ctx.nI, mask, sp.pool, sizes)
          if (cp.choice != sel.seeds.toSeq)
            problems += s"round $round: coverage replay chose ${cp.choice}, select chose ${sel.seeds.toSeq}"
          tot.sets += sel.samples; tot.edges += sp.edges; tot.nodes += sp.nodes
          tot.localS += sp.localS; tot.sparkS += sp.sparkS
          tot.countS += cp.countS; tot.greedyS += cp.greedyS; tot.entries += cp.entries
          val observed = if (s.selector.vanillaRoots) activated.length.toDouble
                         else math.min(activated.length, ctx.etaI).toDouble
          tot.rounds += Round(roundS, sel.samples, sel.iterations, sel.iterations == cap,
                              sel.estTruncated, observed, activated.length)
        }
        probeS += (System.nanoTime() - p0) / 1e9
      }
    }
    tot.tracedS += (System.nanoTime() - solveStart) / 1e9 - probeS
    if (seeds != twin.seeds || samples != twin.samples)
      problems += s"traced loop gave ${seeds.size} seeds/$samples sets, Asti.run " +
                  s"${twin.seeds.size} seeds/${twin.samples} sets"
    problems.toSeq
  }

  /** One ATEUC select and its evaluation, with spans and probes. */
  private def ateuc(env: Env, tracer: Tracer, tot: Totals, s: AteucSolve,
                    twin: Outcome): Seq[String] = {
    val g = env.graph
    val eta = s.eta(g)
    val problems = ArrayBuffer.empty[String]
    val solveStart = System.nanoTime()
    val a = timedAlloc(tot)(tracer.span("solve") { _ =>
      val a = tracer.span("select") { id =>
        tot.selectTags += id.toString
        SparkCounters.tagged(env.spark.sparkContext, id.toString)(
          Ateuc.select(env.spark, env.bg, eta, s.model, s.selectionSeed))
      }
      tracer.span("observe") { _ =>
        s.realizationSeeds.foreach { rs =>
          tot.evaluatedSpread += new Realization(g, s.model, rs).spread(a.seeds)
          tot.evaluations += 1
        }
      }
      a
    })
    tot.tracedS += (System.nanoTime() - solveStart) / 1e9
    tot.ateucSets += a.samples
    tot.ateucIterations += a.iterations
    if (a.seeds.toVector != twin.seeds || a.samples != twin.samples)
      problems += "traced ATEUC select differs from its untraced twin"

    tracer.span("probe") { id =>
      // ATEUC samples the whole graph once, with vanilla single roots.
      val in = RoundInputs(Array.fill(g.n)(true), Array.tabulate(g.n)(identity), eta, s.model,
                           vanillaRoots = true, s.selectionSeed)
      val sp = SamplerProbe.replay(env.spark, env.bg, in, a.samples.toInt, s"probe-$id")
      if (!sp.identical) problems += "driver and Spark pools differ"
      val sizes = CoverageProbe.ateucSizes(a.iterations)
      val cp = CoverageProbe.ateuc(g.n, sp.pool, sizes, a.seeds.length)
      if (a.iterations <= Ateuc.MaxIterations && cp.choice != a.seeds.toSeq)
        problems += "coverage replay does not reproduce ATEUC's seed prefix"
      tot.sets += a.samples; tot.edges += sp.edges; tot.nodes += sp.nodes
      tot.localS += sp.localS; tot.sparkS += sp.sparkS
      tot.greedyS += cp.greedyS; tot.entries += cp.entries
    }
    problems.toSeq
  }

  private def metrics(spans: Seq[Span], tot: Totals, counters: SparkCounters): Seq[Metric] = {
    import Stats.ratio
    val n = tot.solves.toDouble
    val rounds = tot.rounds
    val selectS = Spans.selfSeconds(spans, "select")
    val (jobs, tasks, jobS, resultBytes) = counters.totals(tot.selectTags)
    Seq(
      Metric("asti.rounds_per_solve", rounds.size / n, "rounds"),
      Metric("asti.round_s_p50", if (rounds.isEmpty) 0.0 else Stats.median(rounds.map(_.spanS)), "s"),
      Metric("residual.s_per_solve", Spans.selfSeconds(spans, "residual") / n, "s"),
      Metric("select.s_per_solve", selectS / n, "s"),
      Metric("select.share", ratio(selectS, tot.tracedS), "ratio"),
      Metric("trim.sets_per_solve", rounds.map(_.samples).sum / n, "sets"),
      Metric("trim.doublings_per_round", ratio(rounds.map(_.iterations - 1).sum, rounds.size), "doublings"),
      Metric("trim.cap_stop_frac", ratio(rounds.count(_.capStop), rounds.size), "ratio"),
      Metric("trim.est_over_observed", ratio(rounds.map(_.est).sum, rounds.map(_.observed).sum), "ratio"),
      Metric("sampler.sets_per_s", ratio(tot.sets.toDouble, tot.localS), "1/s"),
      Metric("sampler.edges_per_set", ratio(tot.edges.toDouble, tot.sets.toDouble), "edges"),
      Metric("sampler.nodes_per_set", ratio(tot.nodes.toDouble, tot.sets.toDouble), "nodes"),
      Metric("sampler.s_per_solve", tot.localS / n, "s"),
      Metric("sampler.spark_sets_per_s", ratio(tot.sets.toDouble, tot.sparkS), "1/s"),
      Metric("spark.jobs_per_solve", jobs / n, "jobs"),
      Metric("spark.tasks_per_solve", tasks / n, "tasks"),
      Metric("spark.job_s_per_solve", jobS / n, "s"),
      Metric("spark.result_mb_per_solve", resultBytes / 1048576.0 / n, "MB"),
      Metric("coverage.count_s_per_solve", tot.countS / n, "s"),
      Metric("coverage.greedy_s_per_solve", tot.greedyS / n, "s"),
      Metric("coverage.entries_per_solve", tot.entries / n, "entries"),
      Metric("observe.s_per_solve", Spans.selfSeconds(spans, "observe") / n, "s"),
      Metric("observe.activated_per_round",
             if (rounds.nonEmpty) ratio(rounds.map(_.activated).sum, rounds.size)
             else ratio(tot.evaluatedSpread.toDouble, tot.evaluations.toDouble), "nodes"),
      Metric("ateuc.sets_per_select", tot.ateucSets / n, "sets"),
      Metric("ateuc.iterations_per_select", tot.ateucIterations / n, "iterations"),
      Metric("jvm.alloc_gb_per_solve", tot.allocBytes / 1e9 / n, "GB"),
      Metric("jvm.gc_s_per_solve", tot.gcMs / 1e3 / n, "s"),
      Metric("trace.overhead_frac", ratio(tot.tracedS, tot.twinS) - 1.0, "ratio"),
    )
  }
}

object LayerTrace {

  /** Everything measured about one round of an adaptive solve. */
  final case class Round(spanS: Double, samples: Long, iterations: Int, capStop: Boolean,
                         est: Double, observed: Double, activated: Int)

  /** Per-solve totals from the probes and JVM counters. */
  final class Totals {
    var solves = 0
    var tracedS, twinS = 0.0
    var sets, edges, nodes = 0L
    var localS, sparkS = 0.0
    var countS, greedyS = 0.0
    var entries = 0L
    var allocBytes = 0L
    var gcMs = 0L
    var evaluations, evaluatedSpread = 0L
    var ateucSets = 0L
    var ateucIterations = 0L
    val rounds = ArrayBuffer.empty[Round]
    val selectTags = ArrayBuffer.empty[String]
  }
}
