package repro.graph

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.graph.CompactGraphOps._

class GraphGenSpec extends AnyFunSuite with SparkSpec {

  test("fig2 matches Example 2.3 structure") {
    val g = GraphGen.fig2
    assert(g.n == 4 && g.m == 4)
    val edges = (0 until g.m).map(e => (g.srcs(e), g.dsts(e), g.probs(e))).toSet
    assert(edges == Set((0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0)))
  }

  test("line graph wiring") {
    val g = GraphGen.line(5, 0.7)
    assert(g.n == 5 && g.m == 4)
    (0 until 4).foreach { e =>
      assert(g.srcs(e) == e && g.dsts(e) == e + 1 && g.probs(e) == 0.7)
    }
  }

  test("star graph wiring") {
    val g = GraphGen.star(6, 0.4)
    assert(g.n == 6 && g.m == 5)
    assert(g.outDeg(0) == 5 && (1 until 6).forall(g.outDeg(_) == 0))
    assert((1 until 6).forall(g.inDeg(_) == 1))
  }

  test("twoCliques wiring") {
    val g = GraphGen.twoCliques(3, 1.0)
    assert(g.n == 6 && g.m == 12)
    // No cross-block edges.
    (0 until g.m).foreach(e => assert(g.srcs(e) / 3 == g.dsts(e) / 3))
  }

  test("powerLawEdges: no self loops") {
    val df = ReferenceGraphGen.powerLawEdges(spark, 100, 300, 2.3, 1L, undirected = false)
    assert(df.where("src = dst").count() == 0)
  }

  test("powerLawEdges: no duplicate directed edges") {
    val df = ReferenceGraphGen.powerLawEdges(spark, 100, 300, 2.3, 1L, undirected = false)
    assert(df.count() == df.distinct().count())
  }

  test("powerLawEdges: node ids in range") {
    val df = ReferenceGraphGen.powerLawEdges(spark, 50, 150, 2.3, 2L, undirected = false)
    assert(df.where("src < 0 or src >= 50 or dst < 0 or dst >= 50").count() == 0)
  }

  test("powerLawEdges: deterministic in seed") {
    def edgeSet(seed: Long) =
      ReferenceGraphGen.powerLawEdges(spark, 80, 200, 2.3, seed, undirected = false)
        .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(edgeSet(7L) == edgeSet(7L))
    assert(edgeSet(7L) != edgeSet(8L))
  }

  test("powerLawEdges: undirected output is symmetric") {
    val df = ReferenceGraphGen.powerLawEdges(spark, 60, 100, 2.2, 3L, undirected = true)
    val edges = df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(edges.forall { case (a, b) => edges.contains((b, a)) })
  }

  test("powerLawEdges: directed edge count does not exceed target") {
    val df = ReferenceGraphGen.powerLawEdges(spark, 100, 250, 2.3, 4L, undirected = false)
    assert(df.count() <= 250)
    assert(df.count() > 100) // should get reasonably close
  }

  test("powerLawEdges: out-degree distribution is heavy-tailed, hubs bounded") {
    val g = ReferenceGraphGen.fromDF(
      ReferenceGraphGen.powerLawEdges(spark, 500, 2000, 2.3, 5L, undirected = false), 500)
    val degs = (0 until g.n).map(g.outDeg).sorted.reverse
    // Top 5% of nodes hold a disproportionate (but not degenerate) share.
    val topShare = degs.take(25).sum.toDouble / degs.sum
    assert(topShare > 0.15, s"top-5% share=$topShare")
    assert(degs.head.toDouble / degs.sum < 0.2, s"single hub share=${degs.head.toDouble / degs.sum}")
  }

  test("communityEdges wires full cliques of size s") {
    val arcs = ReferenceGraphGen.communityEdges(spark, 12, 4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(arcs.size == 12 * 3)
    // Every intra-community ordered pair present, nothing else.
    for (c <- 0 until 3; i <- 0 until 4; j <- 0 until 4 if i != j)
      assert(arcs.contains((c * 4L + i, c * 4L + j)))
  }

  test("communityEdges has no cross-community arcs") {
    val arcs = ReferenceGraphGen.communityEdges(spark, 20, 5).collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    assert(arcs.forall { case (a, b) => a / 5 == b / 5 })
  }

  test("communityEdges handles a ragged tail community") {
    val arcs = ReferenceGraphGen.communityEdges(spark, 10, 4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // Last community is {8, 9}: just the two arcs between them.
    assert(arcs.contains((8L, 9L)) && arcs.contains((9L, 8L)))
    assert(arcs.count { case (a, _) => a >= 8 } == 2)
  }

  test("dataset embeds its community cliques") {
    val g = GraphGen.dataset("nethept", scale = 0.05) // s = 4
    val arcs = (0 until g.m).map(e => (g.srcs(e), g.dsts(e))).toSet
    for (i <- 0 until 4; j <- 0 until 4 if i != j)
      assert(arcs.contains((i, j)), s"clique arc $i->$j missing")
  }

  test("dataset arc count is close to the scaled target") {
    val spec = GraphGen.datasetSpec("epinions")
    val g = GraphGen.dataset("epinions", scale = 0.05)
    val target = (spec.targetEdges * 0.05).toInt
    assert(g.m <= target * 1.05, s"m=${g.m} target=$target")
    assert(g.m >= target * 0.7, s"m=${g.m} target=$target")
  }

  test("dataset hub share is bounded") {
    val g = GraphGen.dataset("epinions", scale = 0.1)
    val maxOut = (0 until g.n).map(g.outDeg).max
    assert(maxOut.toDouble / g.m < 0.1, s"hub share=${maxOut.toDouble / g.m}")
  }

  test("dataset specs cover the paper's four datasets") {
    assert(GraphGen.datasets.map(_.name).toSet ==
      Set("nethept", "epinions", "youtube", "livejournal"))
  }

  test("datasetSpec rejects unknown names") {
    intercept[IllegalArgumentException](GraphGen.datasetSpec("facebook"))
  }

  test("dataset directedness matches the paper") {
    assert(!GraphGen.datasetSpec("nethept").directed)
    assert(GraphGen.datasetSpec("epinions").directed)
    assert(!GraphGen.datasetSpec("youtube").directed)
    assert(GraphGen.datasetSpec("livejournal").directed)
  }

  test("dataset at small scale builds a weighted-cascade graph") {
    val g = GraphGen.dataset("nethept", scale = 0.05)
    assert(g.n == 760)
    assert(g.m > 0)
    // Weighted cascade: in-probabilities of any node with indeg>0 sum to 1.
    val v = (0 until g.n).find(g.inDeg(_) > 0).get
    assert(math.abs(g.inEdgesOf(v).map(g.probs).sum - 1.0) < 1e-12)
  }

  test("dataset scale shrinks node and edge counts") {
    val small = GraphGen.dataset("nethept", scale = 0.05)
    val larger = GraphGen.dataset("nethept", scale = 0.1)
    assert(larger.n > small.n && larger.m > small.m)
  }

  test("undirected dataset has symmetric arcs") {
    val g = GraphGen.dataset("youtube", scale = 0.02)
    val arcs = (0 until g.m).map(e => (g.srcs(e), g.dsts(e))).toSet
    assert(arcs.forall { case (a, b) => arcs.contains((b, a)) })
  }

  test("dataset equals the reference pipeline's edges and probabilities at 16 and 64 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val cases = GraphGen.datasets.map(_.name -> 0.05) :+ ("nethept" -> 1.0)
    try for (partitions <- Seq(16, 64); (name, scale) <- cases) {
      spark.conf.set(key, partitions.toLong)
      val g = GraphGen.dataset(name, scale)
      val ref = ReferenceGraphGen.dataset(spark, name, scale)
      val clue = s"$name ×$scale, $partitions partitions"
      assertSameArrays(g, ref, clue)
    } finally spark.conf.set(key, saved)
  }

  test("dataset numbers edges in ascending (src, dst) order") {
    for (spec <- GraphGen.datasets) {
      val g = GraphGen.dataset(spec.name, scale = 0.05)
      val keys = (0 until g.m).map(e => g.srcs(e).toLong * g.n + g.dsts(e))
      assert(keys.sliding(2).forall(p => p(0) < p(1)), spec.name)
    }
  }

  /** Every array of the two CSRs is equal. */
  private def assertSameArrays(a: CompactGraph, b: CompactGraph, clue: String): Unit = {
    assert(a.n == b.n, clue)
    for ((x, y) <- Seq(a.srcs -> b.srcs, a.dsts -> b.dsts, a.outOff -> b.outOff,
                       a.inOff -> b.inOff, a.inEdge -> b.inEdge))
      assert(x.sameElements(y), clue)
    assert(a.probs.sameElements(b.probs), clue)
  }

  /** `body`'s result and the number of Spark jobs it started. */
  private def jobsDuring[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val tagKey = "repro.test.tag"
    val jobs = new AtomicInteger
    val markerSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(tagKey)) match {
          case Some("body") => jobs.incrementAndGet()
          case Some("marker") => markerSeen.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tagKey, "body")
      val result = body
      // The listener bus delivers events in order: once the marker job's
      // start arrives, so has every job `body` started.
      sc.setLocalProperty(tagKey, "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerSeen.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
      (result, jobs.get)
    } finally {
      sc.setLocalProperty(tagKey, null)
      sc.removeSparkListener(listener)
    }
  }

  test("dataset launches no Spark job, and two calls return identical arrays") {
    val (a, jobsA) = jobsDuring(GraphGen.dataset("nethept", 0.05, 7L))
    // The second call goes through the form with `spark`, which perfbench calls.
    val (b, jobsB) = jobsDuring(GraphGen.dataset(spark, "nethept", 0.05, 7L))
    val (_, refJobs) = jobsDuring(ReferenceGraphGen.dataset(spark, "nethept", scale = 0.05))
    assert(refJobs > 0, "the listener counts the reference pipeline's jobs")
    assert(jobsA == 0 && jobsB == 0, s"jobs: $jobsA, $jobsB")
    assertSameArrays(a, b, "two calls")
  }
}
