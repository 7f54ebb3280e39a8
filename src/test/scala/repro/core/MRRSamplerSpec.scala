package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.{DiffusionModel, Spread}
import repro.graph.CompactGraphOps._
import repro.graph.{CompactGraph, GraphGen, NodeQueue}
import org.apache.commons.math3.distribution.{BinomialDistribution, ChiSquaredDistribution}
import org.apache.commons.math3.stat.inference.ChiSquareTest
import repro.util.{HelperPool, Rng}

class MRRSamplerSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}
  import SamplerFixtures.{residual, sampleOne, withEtaI}

  private val cores = Runtime.getRuntime.availableProcessors()

  private def freshCtx(g: CompactGraph, eta: Int, model: DiffusionModel,
                       vanilla: Boolean = false, seed: Long = 1L): MRRSamplerCtx =
    new MRRSamplerCtx(new ResidualState(g, eta), model, vanilla, seed)

  test("rootSize: exact division gives fixed k") {
    (0 until 100).foreach { i =>
      assert(MRRSampler.rootSize(10, 5, Rng.uniform(1L, i.toLong)) == 2)
    }
  }

  test("rootSize: fractional ratio rounds between floor and ceil") {
    val ks = (0 until 2000).map(i => MRRSampler.rootSize(10, 4, Rng.uniform(2L, i.toLong)))
    assert(ks.toSet == Set(2, 3))
    // E[k] = 2.5: frequency of 3 ≈ 0.5.
    val frac3 = ks.count(_ == 3) / 2000.0
    assert(math.abs(frac3 - 0.5) < 0.05, s"frac3=$frac3")
  }

  test("rootSize expectation is n/η for uneven ratios") {
    val ks = (0 until 20000).map(i => MRRSampler.rootSize(7, 3, Rng.uniform(3L, i.toLong)))
    assert(math.abs(ks.sum / 20000.0 - 7.0 / 3.0) < 0.03)
  }

  test("rootSize never exceeds n_i nor drops below 1") {
    for (n <- 1 to 6; eta <- 1 to n; i <- 0 until 50) {
      val k = MRRSampler.rootSize(n, eta, Rng.uniform(4L, i.toLong))
      assert(k >= 1 && k <= n, s"n=$n eta=$eta k=$k")
    }
  }

  test("sampleOne is deterministic in (seed, idx)") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val state = new ResidualState(g, 20)
    val a = sampleOne(new MRRSamplerCtx(state, IC, false, 5L), 7L)
    val b = sampleOne(new MRRSamplerCtx(state, IC, false, 5L), 7L)
    assert(a._1.toSeq == b._1.toSeq && a._2 == b._2)
  }

  test("sampleOne varies with idx") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val ctx = new MRRSamplerCtx(new ResidualState(g, 20), IC, false, 5L)
    val sets = (0 until 20).map(i => sampleOne(ctx, i.toLong)._1.toSeq)
    assert(sets.distinct.size > 1)
  }

  test("mRR-set nodes are distinct and inactive") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val state = new ResidualState(g, 50)
    state.activate(Array(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
    val ctx = new MRRSamplerCtx(state, IC, false, 9L)
    (0 until 50).foreach { i =>
      val (set, _) = sampleOne(ctx, i.toLong)
      assert(set.nonEmpty)
      assert(set.distinct.length == set.length)
      assert(set.forall(state.inactive(_)), s"idx $i leaked an active node")
    }
  }

  test("vanilla mode draws exactly one root on a no-edge graph") {
    val g = CompactGraph.fromEdges(10, Seq.empty)
    val ctx = new MRRSamplerCtx(new ResidualState(g, 5), IC, vanillaRoots = true, 3L)
    (0 until 30).foreach { i =>
      val (set, _) = sampleOne(ctx, i.toLong)
      assert(set.length == 1)
    }
  }

  test("multi-root mode draws k roots on a no-edge graph") {
    val g = CompactGraph.fromEdges(12, Seq.empty)
    // n/η = 4 exactly
    val ctx = new MRRSamplerCtx(new ResidualState(g, 3), IC, vanillaRoots = false, 4L)
    (0 until 30).foreach { i =>
      val (set, _) = sampleOne(ctx, i.toLong)
      assert(set.length == 4)
      assert(set.distinct.length == 4)
    }
  }

  test("large-k path (η_i = 1) returns all residual nodes as roots") {
    val g = CompactGraph.fromEdges(8, Seq.empty)
    val (set, _) = sampleOne(new MRRSamplerCtx(new ResidualState(g, 1), IC, false, 6L), 0L)
    assert(set.sorted.toSeq == (0 until 8))
  }

  test("deterministic chain: mRR-set contains the full upstream prefix") {
    val g = GraphGen.line(6, 1.0)
    val ctx = new MRRSamplerCtx(new ResidualState(g, 6), IC, false, 7L) // k = 1
    (0 until 20).foreach { i =>
      val (set, _) = sampleOne(ctx, i.toLong)
      val root = set.max // on a p=1 chain, reverse reach of r is 0..r
      assert(set.sorted.toSeq == (0 to root))
    }
  }

  private lazy val nethept = GraphGen.dataset("nethept", scale = 0.05)

  /** Sampling inputs covering both models and both root modes, with few
    * roots and with half the residual nodes as roots (η_i = 2), on full and
    * residual graphs: each a maker of fresh contexts of a given worker count.
    */
  private def makers: Seq[(String, Int => MRRSamplerCtx)] = {
    def ctx(eta: Int, model: DiffusionModel, vanilla: Boolean, activated: Int,
            seed: Long)(workers: Int): MRRSamplerCtx = {
      val state = new ResidualState(nethept, eta)
      state.activate((0 until activated).toArray)
      new MRRSamplerCtx(state, model, vanilla, seed, workers)
    }
    Seq[(String, Int => MRRSamplerCtx)](
      "IC multi-root" -> ctx(20, IC, vanilla = false, 0, 11L),
      "LT multi-root" -> ctx(20, LT, vanilla = false, 0, 12L),
      "IC vanilla" -> ctx(20, IC, vanilla = true, 0, 13L),
      "LT vanilla" -> ctx(20, LT, vanilla = true, 0, 14L),
      "IC residual, half the nodes as roots" -> ctx(12, IC, vanilla = false, 10, 15L),
      "LT residual, half the nodes as roots" -> ctx(12, LT, vanilla = false, 10, 16L))
  }

  /** One fresh context per input, on every core. */
  private def inputs: Seq[(String, MRRSamplerCtx)] = makers.map { case (name, make) => name -> make(cores) }

  test("ctx generateLocal and generateSpark are byte-identical") {
    // Counts on both sides of the block and worker thresholds (MinBlock =
    // 16), TRIM's first doubling on nethept (143), and 5003: every worker,
    // many blocks, a short last block and every partition.
    Seq(1, 15, 16, 31, 32, 33, 143, 257, 5003).foreach { count =>
      makers.foreach { case (name, make) =>
        val (local, dist) = (make(cores), make(cores))
        val a = local.generateLocal(0, count)
        val b = dist.generateSpark(0, count)
        assert(a.size == count && b.size == count, s"$name, $count sets")
        (0 until count).foreach { i =>
          assert(a(i).toSeq == b(i).toSeq, s"$name set $i of $count")
        }
        assert(local.totalWork == dist.totalWork, s"$name, $count sets")
        // Each worker reuses its thread's NodeQueue; each set drawn alone
        // through a fresh context gives the same.
        (0 until count by 7).foreach { i =>
          val (set, _) = sampleOne(make(cores), i.toLong)
          assert(a(i).toSeq == set.toSeq, s"$name set $i of $count vs a fresh context")
        }
      }
    }
  }

  /** `ctx`'s inputs through the pre-broadcast constructor `(spark, bg, …)`,
    * which perfbench's trace probe calls.
    */
  private def viaBroadcast(ctx: MRRSamplerCtx): MRRSamplerCtx =
    new MRRSamplerCtx(spark, spark.sparkContext.broadcast(ctx.graph), ctx.inactive,
                      ctx.inactiveNodes, ctx.etaI, ctx.model, ctx.vanillaRoots, ctx.seedBase)

  test("growTo in uneven steps gives the same pool as one generateLocal") {
    // Uneven steps, and TRIM's own doubling sizes from θ_o = 143. The
    // reference pool is drawn by a context built through `viaBroadcast`.
    Seq(Seq(10L, 700L, 5003L), Seq(143L, 286L, 572L, 1144L, 2288L)).foreach { steps =>
      val size = steps.last.toInt
      val reference = inputs.map { case (name, c) => name -> viaBroadcast(c) }
      inputs.zip(reference).foreach { case ((name, ctx), (_, direct)) =>
        steps.foreach(ctx.growTo)
        val all = direct.generateLocal(0, size)
        assert(ctx.sets.length == size, name)
        (0 until size).foreach { i =>
          assert(ctx.sets(i).toSeq == all(i).toSeq, s"$name set $i, steps $steps")
        }
        assert(ctx.totalWork == direct.totalWork, s"$name, steps $steps")
      }
    }
  }

  test("repeated generateLocal calls on one ctx return the same pool") {
    // Workers race for blocks; a block claimed twice or skipped would change
    // a slot or the work of some call.
    inputs.foreach { case (name, ctx) =>
      val first = ctx.generateLocal(0, 5003)
      val work = ctx.totalWork
      (2 to 20).foreach { call =>
        val before = ctx.totalWork
        val again = ctx.generateLocal(0, 5003)
        (0 until 5003).foreach { i =>
          assert(again(i).toSeq == first(i).toSeq, s"$name set $i, call $call")
        }
        assert(ctx.totalWork - before == work, s"$name work, call $call")
      }
    }
  }

  test("ctx counts equal a full recount after every growTo") {
    inputs.foreach { case (name, ctx) =>
      assert(ctx.counts.forall(_ == 0), name)
      Seq(1L, 10L, 700L, 5003L).foreach { size =>
        ctx.growTo(size)
        assert(ctx.counts.toSeq == Coverage.counts(nethept.n, ctx.sets).toSeq, s"$name at $size")
      }
    }
  }

  test("TrimB.select and Ateuc.select leave ctx counts unchanged") {
    // Greedy decrements gains; it must do so on a copy.
    val (_, trimCtx) = inputs.head
    val sel = TrimB.select(trimCtx, 0.5, 4)
    assert(sel.seeds.length == 4)
    assert(trimCtx.counts.toSeq == Coverage.counts(nethept.n, trimCtx.sets).toSeq)
    // At b = 1 the context only counts: its counts are those of the pool
    // it did not keep, and its seed is their argmax.
    val (_, countCtx) = inputs.head
    val one = TrimB.select(countCtx, 0.5, 1)
    val pool = inputs.head._2.generateLocal(0, one.samples.toInt)
    assert(countCtx.counts.toSeq == Coverage.counts(nethept.n, pool).toSeq)
    assert(one.seeds.toSeq == Seq(Coverage.topNode(countCtx.counts)._1))
    intercept[IllegalArgumentException](countCtx.sets)

    val ateucCtx = new MRRSamplerCtx(new ResidualState(nethept, nethept.n / 10), IC, vanillaRoots = true, 17L)
    val res = repro.baselines.Ateuc.select(ateucCtx)
    assert(res.iterations > 1 && res.seeds.length > 1)
    assert(ateucCtx.counts.toSeq == Coverage.counts(nethept.n, ateucCtx.sets).toSeq)
  }

  test("countTo counts, samples and work equal those of generateLocal over the same range") {
    inputs.zip(inputs).foreach { case ((name, ctx), (_, direct)) =>
      Seq(1L, 143L, 286L, 5003L).foreach { size =>
        ctx.countTo(size)
        val before = direct.totalWork
        val pool = direct.generateLocal(0, size.toInt)
        assert(ctx.counts.toSeq == Coverage.counts(nethept.n, pool).toSeq, s"$name at $size")
        assert(ctx.totalSamples == size, s"$name at $size")
        assert(ctx.totalWork == direct.totalWork - before, s"$name at $size")
      }
    }
  }

  test("a context grown by countTo keeps no sets, and says so") {
    val (_, ctx) = inputs.head
    ctx.countTo(10)
    ctx.countTo(5) // never shrinks
    assert(ctx.totalSamples == 10)
    val e = intercept[IllegalArgumentException](ctx.sets)
    assert(e.getMessage.contains("countTo") && e.getMessage.contains("keeps no sets"), e.getMessage)
    intercept[IllegalArgumentException](ctx.growTo(20))
    val (_, kept) = inputs.head
    kept.growTo(10)
    intercept[IllegalArgumentException](kept.countTo(20))
  }

  test("the context rejects a reached state, and its forwarder a mask, list and η_i of no residual state") {
    val g = GraphGen.line(6, 0.5)
    val reached = new ResidualState(g, 2)
    reached.activate(Array(0, 1))
    val e = intercept[IllegalArgumentException](new MRRSamplerCtx(reached, IC, false, 1L))
    assert(e.getMessage.contains("reached η = 2"), e.getMessage)
    // The pre-broadcast constructor, which perfbench's trace probe calls.
    val bg = spark.sparkContext.broadcast(g)
    def forward(inactive: Array[Boolean], nodes: Array[Int], etaI: Int): MRRSamplerCtx =
      new MRRSamplerCtx(spark, bg, inactive, nodes, etaI, IC, false, 1L)
    def mask(active: Int*): Array[Boolean] = Array.tabulate(6)(v => !active.contains(v))
    val all = Array(0, 1, 2, 3, 4, 5)
    val rejected = Seq(
      "a mask whose length is not n" -> (() => forward(Array.fill(5)(true), Array(0, 1, 2, 3, 4), 1)),
      "a node above n" -> (() => forward(mask(), Array(0, 2, 6), 1)),
      "a negative node" -> (() => forward(mask(), Array(-1, 2), 1)),
      "an active node" -> (() => forward(mask(3), Array(0, 1, 3, 4), 1)),
      "a descending list" -> (() => forward(mask(), Array(0, 4, 2), 1)),
      "a repeated node" -> (() => forward(mask(), Array(0, 1, 1), 1)),
      "the full list with an active node" -> (() => forward(mask(3), all, 1))) ++
      Seq(-3, 0, 5).map(etaI => s"η_i = $etaI outside [1, 4]" -> (() => forward(mask(4, 5), Array(0, 1, 2, 3), etaI)))
    val messages = rejected.map { case (input, make) =>
      input -> withClue(input)(intercept[IllegalArgumentException](make())).getMessage
    }.toMap
    val short = messages("a mask whose length is not n")
    assert(short.contains("inactive has 5 entries") && short.contains("n = 6"), short)
    Seq(1, 4).foreach { etaI =>
      val ctx = forward(mask(4, 5), Array(0, 1, 2, 3), etaI)
      assert(ctx.inactiveNodes.toSeq == Seq(0, 1, 2, 3) && ctx.etaI == etaI && ctx.nI == 4)
      assert(ctx.inactive.toSeq == mask(4, 5).toSeq)
    }
    assert(forward(mask(), all, 6).etaI == 6)
  }

  test("a NodeQueue across its epoch wrap gives the same sets") {
    makers.foreach { case (name, make) =>
      val ctx = make(cores)
      val s = new NodeQueue(nethept.n)
      s.epoch = Int.MaxValue - 3
      (0 until 10).foreach { i =>
        MRRSampler.sampleInto(s, nethept, ctx.inactive, ctx.inactiveNodes, ctx.etaI,
                              ctx.model, ctx.vanillaRoots, ctx.seedBase, i.toLong)
        val (fresh, _) = sampleOne(make(cores), i.toLong)
        assert(s.result().toSeq == fresh.toSeq, s"$name set $i")
      }
      assert(s.epoch > 0 && s.epoch < 10, s"$name: epoch ${s.epoch} did not wrap")
    }
  }

  test("ctx accounting: totalSamples and totalWork accumulate") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    val ctx = freshCtx(g, 20, IC)
    ctx.growTo(10)
    val s1 = ctx.totalSamples
    ctx.growTo(15)
    ctx.growTo(12) // never shrinks
    assert(s1 == 10 && ctx.totalSamples == 15 && ctx.sets.length == 15)
    assert(ctx.totalWork > 0)
    // The pool holds stream indices 0..14 in order.
    val direct = freshCtx(g, 20, IC).generateLocal(0, 15)
    ctx.sets.zip(direct).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
  }

  test("empirical coverage matches exact E[Γ̃(v)] on fig2 (IC)") {
    val g = GraphGen.fig2
    val eta = 2
    val ctx = freshCtx(g, eta, IC, seed = 21L)
    val theta = 40000
    val sets = ctx.generateLocal(0, theta)
    val cov = Coverage.counts(g.n, sets)
    (0 until g.n).foreach { v =>
      val est = eta.toDouble * cov(v) / theta
      val exact = Spread.exactTildeGamma(g, Array(v), eta, IC)
      assert(math.abs(est - exact) < 0.04, s"v=$v est=$est exact=$exact")
    }
  }

  test("empirical coverage matches exact E[Γ̃(v)] on a weighted-cascade LT graph") {
    val g = CompactGraph.weightedCascade(4, Seq((0, 1), (1, 2), (0, 3), (2, 3)))
    val eta = 2
    val ctx = freshCtx(g, eta, LT, seed = 23L)
    val theta = 40000
    val sets = ctx.generateLocal(0, theta)
    val cov = Coverage.counts(g.n, sets)
    (0 until g.n).foreach { v =>
      val est = eta.toDouble * cov(v) / theta
      val exact = Spread.exactTildeGamma(g, Array(v), eta, LT)
      assert(math.abs(est - exact) < 0.04, s"v=$v est=$est exact=$exact")
    }
  }

  test("residual sampling (IC) matches exact estimator on the induced subgraph") {
    // Activate nodes {3,4,5} of a 7-node graph; residual = induced on {0,1,2,6}.
    val edges = Seq((0, 1, 0.6), (1, 2, 0.7), (2, 3, 0.5), (4, 5, 0.4), (6, 1, 0.8), (2, 6, 0.3))
    val g = CompactGraph.fromEdges(7, edges)
    val state = new ResidualState(g, 6)
    state.activate(Array(3, 4, 5))
    val etaI = state.etaI // 3
    // Induced residual graph, relabeled {0,1,2,6} -> {0,1,2,3}.
    val relabel = Map(0 -> 0, 1 -> 1, 2 -> 2, 6 -> 3)
    val resEdges = edges.collect {
      case (s, d, p) if relabel.contains(s) && relabel.contains(d) => (relabel(s), relabel(d), p)
    }
    val gRes = CompactGraph.fromEdges(4, resEdges)
    val ctx = new MRRSamplerCtx(state, IC, false, 31L)
    val theta = 40000
    val cov = Coverage.counts(g.n, ctx.generateLocal(0, theta))
    relabel.foreach { case (orig, res) =>
      val est = etaI.toDouble * cov(orig) / theta
      val exact = Spread.exactTildeGamma(gRes, Array(res), etaI, IC)
      assert(math.abs(est - exact) < 0.05, s"node $orig est=$est exact=$exact")
    }
  }

  test("residual sampling (LT) renormalizes over the conditional live-edge distribution") {
    // v2's in-edges: from v0 (active, p=0.5) and v1 (inactive, p=0.5).
    // Conditioned on v2 inactive, the chosen edge must be from v1 with
    // probability 0.5/(0.5+0) renormalized over {inactive}∪{none} = 1.0.
    val g = CompactGraph.fromEdges(3, Seq((0, 2, 0.5), (1, 2, 0.5)))
    val state = new ResidualState(g, 3)
    state.activate(Array(0))
    val ctx = new MRRSamplerCtx(state, LT, false, 37L)
    // With η_i = 2 and n_i = 2, k = 1: root uniform over {1, 2}. When the root
    // is 2, the set must always include 1 (conditional probability 1).
    val sets = ctx.generateLocal(0, 4000)
    val withTwo = sets.filter(_.contains(2))
    assert(withTwo.nonEmpty)
    withTwo.foreach(s => assert(s.contains(1), s.mkString(",")))
  }

  /** Draw `perCell` sets per k-subset of `nodes` and assert, by a chi-square
    * goodness-of-fit test at level 0.001, that they are uniform over all of
    * them. Node ids must be below 64.
    */
  private def assertUniformSubsets(nodes: Array[Int], k: Int, clue: String)
                                  (draw: Long => Array[Int]): Unit = {
    val cells = (1 to k).foldLeft(1L)((c, i) => c * (nodes.length - k + i) / i)
    val perCell = 400
    val freq = scala.collection.mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    (0L until perCell * cells).foreach { i =>
      val set = draw(i)
      assert(set.length == k && set.distinct.length == k && set.forall(nodes.contains),
             s"$clue: set ${set.mkString(",")}")
      freq(set.foldLeft(0L)((m, v) => m | 1L << v)) += 1
    }
    // Subsets never drawn contribute (0 - perCell)² / perCell = perCell each.
    val stat = freq.values.map(o => (o - perCell).toDouble * (o - perCell) / perCell).sum +
               (cells - freq.size) * perCell.toDouble
    if (cells > 1) {
      val critical = new ChiSquaredDistribution((cells - 1).toDouble)
        .inverseCumulativeProbability(1 - 1e-3)
      assert(stat < critical, s"$clue: chi-square $stat over $cells subsets, critical $critical")
    }
  }

  /** The nodes of an 8-node graph, and 8 residual nodes of a 12-node one. */
  private def rootNodeSets: Seq[(String, Int, Array[Int])] = {
    val residual = new ResidualState(CompactGraph.fromEdges(12, Seq.empty), 12)
    residual.activate(Array(1, 4, 6, 11))
    Seq(("fresh", 8, (0 until 8).toArray), ("residual", 12, residual.inactiveNodes))
  }

  test("Floyd's root draw is uniform over the k-subsets, fresh and residual") {
    for ((name, n, nodes) <- rootNodeSets; k <- Seq(1, 2, 4, 7, 8)) {
      val s = new NodeQueue(n)
      assertUniformSubsets(nodes, k, s"$name, k = $k") { i =>
        s.begin()
        MRRSampler.addRoots(s, nodes, k, new Rng.Stream(41L + k, i))
        s.result()
      }
    }
  }

  test("sampleOne's roots are uniform over the k-subsets on no-edge graphs") {
    // A set on a graph without edges is exactly its roots; n_i/η_i = k.
    for ((name, n, nodes) <- rootNodeSets; k <- Seq(1, 2, 4, 8);
         vanilla <- if (k == 1) Seq(false, true) else Seq(false)) {
      val g = CompactGraph.fromEdges(n, Seq.empty)
      val state = residual(g, nodes.length / k, (0 until n).filterNot(nodes.contains).toArray)
      val ctx = new MRRSamplerCtx(state, IC, vanilla, 43L + k)
      assertUniformSubsets(nodes, k, s"$name, k = $k, vanilla $vanilla") { i =>
        sampleOne(ctx, i)._1
      }
    }
  }

  /** Residual masks of `nethept`: none, and one where cascades from random
    * seeds have activated 5% of the nodes.
    */
  private def equivalenceMasks(model: DiffusionModel): Seq[(String, ResidualState)] = {
    val fresh = new ResidualState(nethept, 1)
    val residual = new ResidualState(nethept, 1)
    val rnd = new scala.util.Random(47)
    var r = 0L
    while (residual.nActive < nethept.n / 20) {
      val real = new repro.diffusion.Realization(nethept, model, r)
      residual.activate(real.forwardReachable(Array(rnd.nextInt(nethept.n)), residual.inactive))
      r += 1
    }
    Seq("fresh" -> fresh, s"${residual.nActive} active" -> residual)
  }

  /** 3,000 sets per cell, in stream order, folded into one hash, with the
    * cell's work.
    */
  private def digests(): Seq[(String, Long, Long)] =
    for (model <- Seq(IC, LT); (mask, state) <- equivalenceMasks(model); vanilla <- Seq(false, true))
    yield {
      val ctx = new MRRSamplerCtx(withEtaI(state, math.max(1, state.nI / 10)), model, vanilla, 97L)
      val digest = ctx.generateLocal(0, 3000).foldLeft(17L)((h, set) =>
        h * 1000003L + scala.util.hashing.MurmurHash3.arrayHash(set))
      (s"$model, $mask, ${if (vanilla) "vanilla" else "mRR"}", digest, ctx.totalWork)
    }

  /** Pinned before the count-only pool and the CDF tables, which must not
    * change a draw, a set or its order.
    */
  private val pinnedDigests = Seq(
    (-4534229533233864194L, 188847L), (780002585633663382L, 21065L),
    (4517318034212577868L, 182624L), (-4416147105923410451L, 19807L),
    (-7346577873828522622L, 108074L), (5548844041100051575L, 11660L),
    (3540560087139055769L, 109329L), (-6215431441632818427L, 11822L))

  test("pools and work reproduce pinned digests (IC and LT, mRR and vanilla, fresh and residual)") {
    val actual = digests()
    assert(actual.map(a => (a._2, a._3)) == pinnedDigests, actual.mkString("\n"))
  }

  test("a failing sampler worker surfaces in the caller, and the next call is unaffected") {
    assume(Runtime.getRuntime.availableProcessors() > 1, "the pool has no helper on one core")
    // Every helper that joins counts node 5 into its own array, then throws;
    // the caller waits for one to throw. The failure surfaces once every
    // helper that joined has returned, so every count is in place by then.
    val caller = Thread.currentThread()
    val thrown = new java.util.concurrent.atomic.AtomicInteger(0)
    val counts = Array.fill(HelperPool.size + 1)(new Array[Int](nethept.n))
    val e = intercept[IllegalStateException] {
      HelperPool.run(3) { p =>
        if (Thread.currentThread() ne caller) {
          counts(p)(5) += 1
          thrown.incrementAndGet()
          throw new IllegalStateException("set 7 failed")
        }
        val deadline = System.nanoTime() + 10000000000L
        while (thrown.get == 0 && System.nanoTime() < deadline) Thread.sleep(1)
      }
    }
    assert(e.getMessage == "set 7 failed")
    assert(counts.map(_(5)).sum == thrown.get && counts.map(_.sum).sum == thrown.get)
    // In the sampler itself: a copy of nethept whose in-edges into every
    // 50th node get a source outside the graph, written into `inSrc` after
    // the graph constructor's checks, fails the sets that reach such a node,
    // on whichever thread draws them, after others have been counted.
    val broken = {
      val g = nethept
      val copy = new CompactGraph(g.n, g.srcs, g.dsts, g.probs, g.outOff, g.inOff, g.inEdge)
      for (v <- 0 until g.n by 50; i <- g.inOff(v) until g.inOff(v + 1)) copy.inSrc(i) = g.n + 7
      copy
    }
    val state = new ResidualState(broken, 1)
    (1 to 10).foreach { call =>
      val ctx = new MRRSamplerCtx(state, IC, vanillaRoots = true, 61L + call)
      intercept[ArrayIndexOutOfBoundsException](ctx.countTo(20000))
    }
    val actual = digests()
    assert(actual.map(a => (a._2, a._3)) == pinnedDigests, actual.mkString("\n"))
    inputs.zip(inputs).foreach { case ((name, ctx), (_, direct)) =>
      ctx.countTo(5003)
      assert(ctx.counts.toSeq == Coverage.counts(nethept.n, direct.generateLocal(0, 5003)).toSeq, name)
    }
  }

  test("two threads sampling at once get the pools, counts and work of two runs in sequence") {
    /** Per input: the counts and work of `countTo(5003)`, then the sets and
      * work of `generateLocal(0, 3001)`, on contexts of `workers` threads.
      */
    def runAll(order: Seq[Int], workers: Int): Map[Int, (Seq[Int], Long, Seq[Seq[Int]], Long)] =
      order.map { i =>
        def fresh() = makers(i)._2(workers)
        val counted = fresh()
        counted.countTo(5003)
        val drawn = fresh()
        val sets = drawn.generateLocal(0, 3001).map(_.toSeq)
        i -> ((counted.counts.toSeq, counted.totalWork, sets, drawn.totalWork))
      }.toMap
    val indices = inputs.indices
    val expected = runAll(indices, workers = 1)
    (1 to 3).foreach { round =>
      val results = new Array[Map[Int, (Seq[Int], Long, Seq[Seq[Int]], Long)]](2)
      val threads = Seq(indices, indices.reverse).zipWithIndex.map { case (order, k) =>
        new Thread(() => results(k) = runAll(order, Runtime.getRuntime.availableProcessors()))
      }
      threads.foreach(_.start())
      threads.foreach(_.join(120000))
      results.zipWithIndex.foreach { case (r, k) =>
        assert(r != null, s"round $round: thread $k did not finish")
        indices.foreach(i => assert(r(i) == expected(i), s"round $round, thread $k, ${inputs(i)._1}"))
      }
    }
  }

  test("the sampler's pool threads are daemons and go idle after a solve") {
    val g = GraphGen.dataset("nethept", scale = 0.2)
    val plain = Asti.run(g, g.n / 10, 0.5, TrimSelector, IC, 3L, algoSeed = 5L)
    // The pre-broadcast form, which perfbench calls, forwards to the same solve.
    val forwarded = Asti.run(spark, spark.sparkContext.broadcast(g), g.n / 10, 0.5, TrimSelector,
                             IC, 3L, 5L)
    assert(forwarded.copy(wallMillis = plain.wallMillis) == plain)
    val pool = HelperPool.threads
    val cores = Runtime.getRuntime.availableProcessors()
    assert(pool.length <= cores - 1)
    if (cores > 1) assert(pool.nonEmpty, "a solve on more than one core used no helper")
    assert(pool.forall(_.isDaemon), pool.filterNot(_.isDaemon).map(_.getName).mkString(", "))
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
    assume(mx.isThreadCpuTimeSupported)
    def cpu(): Long = pool.map(t => math.max(0L, mx.getThreadCpuTime(t.getId))).sum
    // A helper spins for 1 ms after its last job before it parks: take the
    // baseline once that window has passed.
    Thread.sleep(50)
    val before = cpu()
    Thread.sleep(200)
    val busy = cpu() - before
    assert(busy < 5000000L, s"pool threads used ${busy / 1e6} ms of CPU in 200 ms after a solve")
  }

  test("vanilla RR-sets match the reference sampler's in distribution") {
    // IC and LT, fresh and residual; independent streams on the two sides.
    for (model <- Seq(IC, LT); (name, state) <- equivalenceMasks(model)) {
      val ctx = new MRRSamplerCtx(withEtaI(state, 1), model, true, 51L)
      val sets = ctx.generateLocal(0, 20000)
      val ref = (0 until 20000).map(i => ReferenceSampler.sampleOne(
        nethept, state.inactive, state.inactiveNodes, 1, model, true, 57L, i)._1)
      val failures = SamplerEquivalence.sizeFailures(sets, ref, 1e-3) ++
                     SamplerEquivalence.coverageFailures(nethept.n, sets, ref, 1e-3)
      assert(failures.isEmpty, s"$model, $name: ${failures.mkString("; ")}")
    }
  }

  test("mRR-sets match the reference sampler's in distribution (IC and LT, fresh and residual)") {
    // Independent streams (different seeds) on the two sides. A set with
    // half the residual nodes as roots costs about 40 small ones.
    for (model <- Seq(IC, LT); (name, state) <- equivalenceMasks(model);
         (etaI, count) <- Seq(state.nI / 10 -> 20000, 2 -> 4000)) {
      val ctx = new MRRSamplerCtx(withEtaI(state, etaI), model, false, 53L)
      val sets = ctx.generateLocal(0, count)
      val ref = (0 until count).map(i => ReferenceSampler.sampleOne(
        nethept, state.inactive, state.inactiveNodes, etaI, model, false, 59L, i)._1)
      val failures = SamplerEquivalence.sizeFailures(sets, ref, 1e-3) ++
                     SamplerEquivalence.coverageFailures(nethept.n, sets, ref, 1e-3)
      assert(failures.isEmpty, s"$model, $name, η_i = $etaI: ${failures.mkString("; ")}")
    }
  }

  /** Asserts by a chi-square goodness-of-fit test at level 1e-3 that the
    * counts `observed` follow the cell probabilities `probs` (summing to 1).
    * Cells expecting fewer than 5 counts are pooled; a pool that still
    * expects fewer than 5 joins the largest cell.
    */
  private def assertFits(clue: String, probs: Seq[Double], observed: Seq[Long]): Unit = {
    val total = observed.sum.toDouble
    val (big, small) = probs.zip(observed).partition(_._1 * total >= 5)
    val pool = (small.map(_._1).sum, small.map(_._2).sum)
    val cells =
      if (small.isEmpty) big
      else if (pool._1 * total >= 5) big :+ pool
      else {
        val top = big.indices.maxBy(big(_)._1)
        big.updated(top, (big(top)._1 + pool._1, big(top)._2 + pool._2))
      }
    if (cells.length > 1) {
      val p = new ChiSquareTest().chiSquareTest(cells.map(_._1 * total).toArray, cells.map(_._2).toArray)
      assert(p >= 1e-3, s"$clue: p = $p over ${cells.length} cells")
    }
  }

  /** Node 0 with in-edges from sources 1..d, each of probability p. */
  private def inStar(d: Int, p: Double): CompactGraph =
    CompactGraph.fromEdges(d + 1, (1 to d).map(u => (u, 0, p)))

  /** The first `count` vanilla RR-sets of a fresh context over `inStar`'s
    * graph `g` with the sources in `active` activated whose root, a set's
    * first node, is node 0, each with its work. A set rooted at a source is
    * that source alone.
    */
  private def rootedAtZero(g: CompactGraph, active: Set[Int], model: DiffusionModel, seed: Long,
                           count: Int): Seq[(Array[Int], Long)] = {
    val ctx = new MRRSamplerCtx(residual(g, 1, active.toArray), model, vanillaRoots = true, seed)
    Iterator.from(0).map(i => sampleOne(ctx, i.toLong)).filter(_._1(0) == 0).take(count).toSeq
  }

  /** The masks of the l-subsets of d bits, ascending (Gosper's hack). */
  private def subsetMasks(d: Int, l: Int): Seq[Long] =
    if (l == 0) Seq(0L)
    else Iterator.iterate((1L << l) - 1) { c =>
      val u = c & -c
      val v = c + u
      v + (((v ^ c) / u) >> 2)
    }.takeWhile(_ < (1L << d)).toSeq

  test("a shared-probability node draws Binomial(d, p) live in-edges, uniformly placed") {
    // d·p from 1 to 21; (20, 0.9) and (30, 0.7) place up to 30 live in-edges.
    val cases = Seq((2, 0.5), (10, 0.1), (50, 0.02), (5, 0.5), (8, 0.5), (40, 0.25), (20, 0.9), (30, 0.7))
    val draws = 40000
    for ((d, p) <- cases) {
      val g = inStar(d, p)
      assert(g.sharedP(0) == p && g.icCdf(g.icCdfOff(0)) == math.pow(1 - p, d), s"d = $d, p = $p")
      // Vanilla RR-sets rooted at 0: 0 plus the sources of its live in-edges.
      val masks = rootedAtZero(g, Set.empty, IC, 61L + d, draws).map { case (set, _) =>
        assert(set(0) == 0 && set.distinct.length == set.length)
        set.tail.foldLeft(0L)((m, u) => m | 1L << (u - 1))
      }
      val live = masks.groupMapReduce(java.lang.Long.bitCount)(_ => 1L)(_ + _)
      val binomial = new BinomialDistribution(d, p)
      assertFits(s"L, d = $d, p = $p", (0 to d).map(binomial.probability),
                 (0 to d).map(live.getOrElse(_, 0L)))
      // Each l-subset of in-edges is live with chance p^l (1 − p)^(d − l):
      // one cell per subset where that expects 5 draws, one per l elsewhere.
      val perMask = masks.groupMapReduce(identity)(_ => 1L)(_ + _)
      val cells = (0 to d).flatMap { l =>
        val q = math.pow(p, l) * math.pow(1 - p, d - l)
        if (q * draws < 5) Seq((binomial.probability(l), live.getOrElse(l, 0L)))
        else subsetMasks(d, l).map(c => (q, perMask.getOrElse(c, 0L)))
      }
      assertFits(s"live in-edge sets, d = $d, p = $p", cells.map(_._1), cells.map(_._2))
    }
  }

  /** Under LT, node 0 of `inStar(d, p)` with the sources in `active`
    * activated: asserts that `draws` vanilla RR-sets rooted at 0 pick each
    * inactive source with chance p / (1 − p·|active|), and none otherwise,
    * and returns each set's work.
    */
  private def assertLtChoice(d: Int, p: Double, active: Set[Int], draws: Int, seed: Long): Seq[Long] = {
    val g = inStar(d, p)
    assert(g.sharedP(0) == p)
    val picked = new Array[Long](d + 1) // picked(0) counts "none"
    val works = rootedAtZero(g, active, LT, seed, draws).map { case (set, work) =>
      assert(set(0) == 0 && set.length <= 2)
      picked(if (set.length == 2) set(1) else 0) += 1
      work
    }
    active.foreach(u => assert(picked(u) == 0, s"active source $u picked"))
    val denom = 1 - p * active.size
    val cells = (0 to d).filterNot(active).map { u =>
      (if (u == 0) math.max(0.0, 1 - p * d) / denom else p / denom, picked(u))
    }
    assertFits(s"LT choice, d = $d, p = $p, ${active.size} active", cells.map(_._1), cells.map(_._2))
    works
  }

  test("LT at a shared-probability node with p·d < 1 draws none, fresh and residual") {
    for ((d, p) <- Seq((4, 0.2), (5, 0.1), (10, 0.05)); active <- Seq(Set.empty[Int], Set(2))) {
      val works = assertLtChoice(d, p, active, 20000, 71L + d)
      // Fresh, the first draw is always accepted.
      if (active.isEmpty) assert(works.forall(_ == 1))
    }
  }

  test("LT with most in-sources active falls back to the exact scan") {
    // 28 of 30 sources active: a draw is rejected with chance 0.84, so
    // about a quarter of the sets end in the scan, after every rejection.
    val works = assertLtChoice(30, 0.03, (3 to 30).toSet, 20000, 73L)
    val scanned = works.count(_ == MRRSampler.LtRejections + 1)
    assert(scanned > 2000 && scanned < 8000, s"$scanned sets reached the scan")
  }

  /** `g` restricted to the nodes where `inactive` holds, relabelled in id
    * order. Under LT each kept edge's probability is divided by 1 − the
    * in-probability from active sources into its target: the conditional
    * live-edge draw of a node known to be inactive.
    */
  private def residualGraph(g: CompactGraph, inactive: Array[Boolean], model: DiffusionModel): CompactGraph = {
    val ids = (0 until g.n).filter(inactive(_))
    val relabel = ids.zipWithIndex.toMap
    val activeIn = Array.tabulate(g.n)(v => g.inEdgesOf(v).filterNot(e => inactive(g.srcs(e))).map(g.probs).sum)
    CompactGraph.fromEdges(ids.length, (0 until g.m).collect {
      case e if inactive(g.srcs(e)) && inactive(g.dsts(e)) =>
        val p = if (model == LT) math.min(1.0, g.probs(e) / (1 - activeIn(g.dsts(e)))) else g.probs(e)
        (relabel(g.srcs(e)), relabel(g.dsts(e)), p)
    })
  }

  /** Asserts, fresh (η = 2) and with `activated` activated (η_i = 2), that
    * every residual node's estimate η_i·Λ(v)/θ over 40,000 mRR-sets is within
    * 4.5 standard errors of the exact E[Γ̃(v)] on the residual graph.
    */
  private def assertMatchesExact(name: String, g: CompactGraph, model: DiffusionModel,
                                 activated: Array[Int], seed: Long): Unit = {
    for (act <- Seq(Array.empty[Int], activated)) {
      val state = new ResidualState(g, 2 + act.length)
      state.activate(act)
      val ctx = new MRRSamplerCtx(state, model, false, seed)
      val theta = 40000
      val cov = Coverage.counts(g.n, ctx.generateLocal(0, theta))
      val gRes = residualGraph(g, state.inactive, model)
      state.inactiveNodes.zipWithIndex.foreach { case (v, r) =>
        val exact = Spread.exactTildeGamma(gRes, Array(r), state.etaI, model)
        val q = exact / state.etaI
        val se = state.etaI * math.sqrt(q * (1 - q) / theta)
        val est = state.etaI.toDouble * cov(v) / theta
        assert(math.abs(est - exact) <= 4.5 * se + 1e-9,
               s"$model $name, ${act.length} active: node $v est $est exact $exact (se $se)")
      }
    }
  }

  test("IC coverage matches exact E[Γ̃] on shared, mixed and duplicate in-edges") {
    // Shared p ≥ 0.5 at d ≥ 4 (nodes 4 and 5), d = 2 (6) and d = 1 (0).
    val shared = CompactGraph.fromEdges(7, Seq(
      (0, 4, 0.6), (1, 4, 0.6), (2, 4, 0.6), (3, 4, 0.6), (1, 5, 0.5), (2, 5, 0.5), (3, 5, 0.5),
      (6, 5, 0.5), (4, 6, 0.7), (5, 6, 0.7), (6, 0, 0.5)))
    // Per-edge nodes: mixed probabilities (2, 3, 4), shared p = 0 (5), p = 1 (0).
    val perEdge = CompactGraph.fromEdges(6, Seq(
      (0, 3, 0.3), (1, 3, 0.8), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 0.4), (4, 5, 0.0), (1, 5, 0.0),
      (5, 0, 1.0), (3, 2, 0.5), (4, 2, 0.7)))
    // Duplicate arcs into shared-probability nodes 3, 4 and 1.
    val duplicates = CompactGraph.fromEdges(5, Seq(
      (0, 3, 0.6), (0, 3, 0.6), (1, 3, 0.6), (2, 3, 0.6), (3, 4, 0.5), (3, 4, 0.5), (0, 4, 0.5),
      (4, 1, 0.6), (4, 1, 0.6)))
    assert(Seq(4, 5, 6, 0).forall(v => !shared.sharedP(v).isNaN))
    assert((0 until perEdge.n).forall(perEdge.sharedP(_).isNaN))
    assert(Seq(3, 4, 1).forall(v => !duplicates.sharedP(v).isNaN))
    assertMatchesExact("shared", shared, IC, Array(2), 81L)
    assertMatchesExact("per-edge", perEdge, IC, Array(1), 82L)
    assertMatchesExact("duplicates", duplicates, IC, Array(2), 83L)
  }

  test("LT coverage matches exact E[Γ̃] on shared, mixed and duplicate in-edges") {
    // Shared p with p·d = 1 (4, 6) and p·d < 1 (5, 0).
    val shared = CompactGraph.fromEdges(7, Seq(
      (0, 4, 0.25), (1, 4, 0.25), (2, 4, 0.25), (3, 4, 0.25), (1, 5, 0.2), (2, 5, 0.2), (3, 5, 0.2),
      (4, 6, 0.5), (5, 6, 0.5), (6, 0, 0.5)))
    // Per-edge nodes: mixed probabilities (3), p = 1 (4) and p = 0 (2);
    // node 1 shares 0.4 over two in-edges.
    val perEdge = CompactGraph.fromEdges(5, Seq(
      (0, 3, 0.3), (1, 3, 0.5), (2, 3, 0.2), (3, 4, 1.0), (0, 1, 0.4), (4, 1, 0.4), (1, 2, 0.0)))
    val duplicates = CompactGraph.fromEdges(5, Seq(
      (0, 3, 0.25), (0, 3, 0.25), (1, 3, 0.25), (2, 3, 0.25), (3, 4, 0.3), (3, 4, 0.3), (1, 4, 0.3),
      (4, 0, 0.5)))
    assertMatchesExact("shared", shared, LT, Array(2), 84L)
    assertMatchesExact("per-edge", perEdge, LT, Array(0), 85L)
    assertMatchesExact("duplicates", duplicates, LT, Array(1), 86L)
  }
}
