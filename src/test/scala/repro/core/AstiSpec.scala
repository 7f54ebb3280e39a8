package repro.core

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.{CompactGraph, GraphGen}

class AstiSpec extends AnyFunSuite with TimeLimits {

  import DiffusionModel.{IC, LT}

  test("a round that activates no node fails, naming the round and the selector") {
    // Picks node 0 every round. It activates only itself (no edges), so
    // round 2 activates nothing and would leave the residual state, and
    // every later round, unchanged. The call cap ends a run that loops.
    implicit val signaler: Signaler = ThreadSignaler
    var calls = 0
    val stuck = new Selector {
      val name = "STUCK"
      def select(ctx: MRRSamplerCtx, eps: Double): SelectResult = {
        calls += 1
        if (calls > 50) throw new IllegalStateException(s"still selecting after $calls rounds")
        SelectResult(Array(0), 1.0, 0L, 0L, 1)
      }
    }
    val e = failAfter(Span(30, Seconds)) {
      intercept[IllegalArgumentException](
        Asti.run(CompactGraph.fromEdges(5, Seq.empty), 3, 0.5, stuck, IC, 1L))
    }
    assert(e.getMessage.contains("round 2") && e.getMessage.contains("STUCK"), e.getMessage)
    assert(calls == 2)
  }

  test("one seed suffices on a deterministic chain") {
    val g = GraphGen.line(10, 1.0)
    val res = Asti.run(g, eta = 10, eps = 0.5, TrimSelector, IC, 1L)
    assert(res.seeds == Vector(0))
    assert(res.finalSpread == 10 && res.rounds == 1)
  }

  test("one seed suffices on a deterministic star with η = n") {
    val g = GraphGen.star(15, 1.0)
    val res = Asti.run(g, 15, 0.5, TrimSelector, IC, 2L)
    assert(res.seeds == Vector(0))
  }

  test("deterministic two-clique needs exactly one seed for η = s") {
    val g = GraphGen.twoCliques(5, 1.0)
    val res = Asti.run(g, 5, 0.5, TrimSelector, IC, 3L)
    assert(res.numSeeds == 1 && res.finalSpread == 5)
  }

  test("deterministic two-clique needs exactly two seeds for η = s+1") {
    val g = GraphGen.twoCliques(5, 1.0)
    val res = Asti.run(g, 6, 0.5, TrimSelector, IC, 4L)
    assert(res.numSeeds == 2 && res.finalSpread == 10)
    assert(res.seeds.map(_ / 5).toSet == Set(0, 1))
  }

  test("ASTI always reaches the threshold across realizations (IC)") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    (0 until 5).foreach { r =>
      val res = Asti.run(g, eta = 30, eps = 0.5, TrimSelector, IC, 100L + r)
      assert(res.finalSpread >= 30, s"realization $r: ${res.finalSpread}")
    }
  }

  test("ASTI always reaches the threshold across realizations (LT)") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    (0 until 5).foreach { r =>
      val res = Asti.run(g, 30, 0.5, TrimSelector, LT, 200L + r)
      assert(res.finalSpread >= 30, s"realization $r: ${res.finalSpread}")
    }
  }

  test("selected seeds are distinct") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 40, 0.5, TrimSelector, IC, 5L)
    assert(res.seeds.distinct.size == res.seeds.size)
  }

  test("rounds equals seed count for batch size 1") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 40, 0.5, TrimSelector, IC, 6L)
    assert(res.rounds == res.numSeeds)
  }

  test("run is deterministic given all seeds") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val a = Asti.run(g, 25, 0.5, TrimSelector, IC, 7L, algoSeed = 11L)
    val b = Asti.run(g, 25, 0.5, TrimSelector, IC, 7L, algoSeed = 11L)
    assert(a.seeds == b.seeds && a.samples == b.samples)
  }

  test("different realizations generally yield different seed sequences") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    // η large enough that several rounds are needed, so the observed
    // activations (which differ per realization) steer later selections.
    val runs = (0 until 4).map(r => Asti.run(g, 120, 0.5, TrimSelector, IC, 300L + r).seeds)
    assert(runs.distinct.size > 1, runs.toString)
  }

  test("TRIM-B batches reach the threshold with fewer rounds") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val single = Asti.run(g, 60, 0.5, TrimSelector, IC, 8L)
    val batched = Asti.run(g, 60, 0.5, TrimBSelector(4), IC, 8L)
    assert(batched.finalSpread >= 60)
    assert(batched.rounds < single.rounds || single.rounds == 1)
    assert(batched.rounds <= math.ceil(batched.numSeeds / 4.0).toInt + 1)
  }

  test("every TRIM-B batch size reaches the threshold") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    for (b <- Seq(2, 4, 8)) {
      val res = Asti.run(g, 30, 0.5, TrimBSelector(b), IC, 9L)
      assert(res.finalSpread >= 30, s"b=$b")
      assert(res.seeds.distinct.size == res.seeds.size, s"b=$b")
    }
  }

  test("AdaptIM selector also reaches the threshold") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 30, 0.5, AdaptImSelector, IC, 10L)
    assert(res.finalSpread >= 30)
  }

  test("ASTI draws fewer samples than AdaptIM (truncation pays off)") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val eta = math.max(5, g.n / 20)
    val asti = Asti.run(g, eta, 0.5, TrimSelector, IC, 11L)
    val adapt = Asti.run(g, eta, 0.5, AdaptImSelector, IC, 11L)
    assert(asti.samples < adapt.samples,
           s"ASTI=${asti.samples} ADAPTIM=${adapt.samples}")
  }

  test("seed count grows with the threshold on the same realization") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val small = Asti.run(g, 10, 0.5, TrimSelector, IC, 12L)
    val large = Asti.run(g, 80, 0.5, TrimSelector, IC, 12L)
    assert(large.numSeeds >= small.numSeeds)
  }

  test("final spread does not wildly overshoot on batch size 1") {
    val g = GraphGen.dataset("nethept", scale = 0.1)
    val res = Asti.run(g, 40, 0.5, TrimSelector, IC, 13L)
    // Single-seed rounds stop as soon as η is crossed; the overshoot is at
    // most the last seed's spread, which is small relative to the graph.
    assert(res.finalSpread < g.n)
  }

  test("observed activation is consistent with the realization") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 30, 0.5, TrimSelector, IC, 14L)
    // Replaying the final seed set on the same realization must activate at
    // least as many nodes as the adaptive process observed (the replay is
    // unrestricted while the process activates incrementally — the union of
    // incremental forward-reachable sets equals the replay's reachable set).
    val replay = new Realization(g, IC, 14L).spread(res.seeds.toArray)
    assert(replay == res.finalSpread, s"replay=$replay observed=${res.finalSpread}")
  }

  test("run rejects ε outside (0, 1)") {
    val g = GraphGen.line(5, 1.0)
    for (eps <- Seq(0.0, 1.0, -0.5, 1.5, Double.NaN)) {
      val e = intercept[IllegalArgumentException](Asti.run(g, 3, eps, TrimSelector, IC, 1L))
      assert(e.getMessage.contains(s"ε=$eps"), e.getMessage)
    }
  }

  test("wall time and work counters are populated") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val res = Asti.run(g, 20, 0.5, TrimSelector, IC, 15L)
    assert(res.samples > 0 && res.work > 0 && res.wallMillis >= 0)
  }

  test("LT entry points reject in-probabilities summing beyond 1, naming the node") {
    val g = GraphGen.fig2 // v4's two in-edges have probability 1 each
    def rejects(run: => Any): Unit = {
      val e = intercept[IllegalArgumentException](run)
      assert(e.getMessage.contains("node 3's sum to 2.0"), e.getMessage)
    }
    rejects(new Realization(g, LT, 1L))
    rejects(Asti.run(g, 2, 0.5, TrimSelector, LT, 1L))
    rejects(repro.baselines.Ateuc.select(g, 2, LT, 1L))
    assert(Asti.run(g, 2, 0.5, TrimSelector, IC, 1L).finalSpread >= 2)
    // Up to 1e-9 over 1 passes, as rounding; more does not.
    def third(extra: Double) = CompactGraph.fromEdges(4, Seq(
      (0, 3, 1.0 / 3), (1, 3, 1.0 / 3), (2, 3, 1.0 / 3 + extra)))
    assert(new Realization(third(1e-12), LT, 1L).spread(Array(0)) >= 1)
    assert(intercept[IllegalArgumentException](new Realization(third(1e-8), LT, 1L))
             .getMessage.contains("node 3's"))
  }
}
