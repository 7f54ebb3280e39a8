package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{MRRSamplerCtx, ResidualState}
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.{CompactGraph, GraphGen}

/** Sampler layer on nethept: sets per second and nanoseconds per visited
  * node of the driver sampler, on one worker and on all cores.
  *
  * Cells cover IC and LT, mRR-sets at η_i = n_i/10 and vanilla RR-sets, on
  * the fresh graph and on a residual one where cascades activated 5% of the
  * nodes. Each cell is timed through both of the context's paths: `sets`
  * draws a pool with `generateLocal`, `counts` counts the same sets with
  * `countTo` and keeps none. One worker means a context built with
  * `workers = 1`, which samples on the calling thread alone. Each figure is
  * the median of `Reps` timed passes after two untimed ones.
  *
  * A last row prices one sampler call: 2,000 fresh contexts that each
  * `countTo(143)` (TRIM's θ_o on nethept) against one `countTo(286000)`
  * over as many sets, on all cores.
  */
class SamplerBench extends AnyFunSuite {

  import DiffusionModel.{IC, LT}

  private val Reps = 7

  /** The fresh mask and one where cascades from random seeds activated 5%. */
  private def masks(g: CompactGraph, model: DiffusionModel): Seq[(String, ResidualState)] = {
    val residual = new ResidualState(g, 1)
    val rnd = new scala.util.Random(47)
    var r = 0L
    while (residual.nActive < g.n / 20) {
      val real = new Realization(g, model, r)
      residual.activate(real.forwardReachable(Array(rnd.nextInt(g.n)), residual.inactive))
      r += 1
    }
    Seq("fresh" -> new ResidualState(g, 1), "5% active" -> residual)
  }

  /** Median seconds of `f` over `Reps` passes, after two untimed ones. */
  private def median(f: () => Unit): Double = {
    f(); f()
    val times = (1 to Reps).map { _ =>
      val t0 = System.nanoTime(); f(); (System.nanoTime() - t0) / 1e9
    }
    times.sorted.apply(Reps / 2)
  }

  test("sampler throughput on nethept (IC and LT, mRR and vanilla, fresh and residual)") {
    val g = GraphGen.dataset("nethept", scale = 1.0)
    val cores = Runtime.getRuntime.availableProcessors()
    println(f"\n=== Sampler throughput: nethept, n = ${g.n}, m = ${g.m}, $cores cores, " +
            f"IC tables ${g.icCdf.length} doubles ===")
    println(f"${"cell"}%-30s ${"path"}%-6s ${"sets"}%8s ${"nodes/set"}%9s " +
            f"${"1-core sets/s"}%13s ${"ns/node"}%8s ${"all sets/s"}%11s ${"ns/node"}%8s ${"speed-up"}%8s")
    for (model <- Seq(IC, LT); (mask, state) <- masks(g, model); vanilla <- Seq(false, true)) {
      val count = if (vanilla) 200000 else 20000
      def ctx(workers: Int = cores) =
        new MRRSamplerCtx(g, state.inactive, state.inactiveNodes,
                          math.max(1, state.nI / 10), model, vanilla, 5L, workers)
      val nodes = ctx().generateLocal(0, count).iterator.map(_.length.toLong).sum
      val counted = { val c = ctx(); c.countTo(count); c.counts.iterator.map(_.toLong).sum }
      assert(counted == nodes, s"$model $mask: counted $counted nodes, the pool holds $nodes")
      val cell = s"$model, $mask, ${if (vanilla) "vanilla" else "mRR"}"
      val paths = Seq[(String, Int => Unit)](
        "sets" -> (w => ctx(w).generateLocal(0, count)),
        "counts" -> (w => ctx(w).countTo(count)))
      for ((path, f) <- paths) {
        val single = median(() => f(1))
        val all = median(() => f(cores))
        println(f"$cell%-30s $path%-6s $count%8d ${nodes.toDouble / count}%9.1f " +
                f"${count / single}%13.0f ${single * 1e9 / nodes}%8.1f " +
                f"${count / all}%11.0f ${all * 1e9 / nodes}%8.1f ${single / all}%8.2f")
      }
    }

    val state = new ResidualState(g, 1)
    def fresh() = new MRRSamplerCtx(g, state.inactive, state.inactiveNodes,
                                    math.max(1, state.nI / 10), IC, false, 5L)
    val calls = 2000
    val small = median(() => (1 to calls).foreach(_ => fresh().countTo(143)))
    val large = median(() => fresh().countTo(143L * calls))
    println(f"\n=== One sampler call: IC, fresh, mRR, all cores ===")
    println(f"$calls%d x countTo(143): ${small * 1e6 / calls}%.1f us per call; " +
            f"countTo(${143 * calls}%d): ${large * 1e6 / calls}%.1f us per 143 sets; " +
            f"fixed cost ${(small - large) * 1e6 / calls}%.1f us per call")
  }
}
