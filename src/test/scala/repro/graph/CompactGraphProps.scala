package repro.graph

import org.scalacheck.{Gen, Prop, Properties}
import repro.graph.CompactGraphOps._

/** ScalaCheck structural invariants of the CSR representation over random
  * edge lists.
  */
object CompactGraphProps extends Properties("CompactGraph") {

  private val genGraph: Gen[(Int, List[(Int, Int, Double)])] = for {
    n <- Gen.choose(1, 30)
    m <- Gen.choose(0, 80)
    edges <- Gen.listOfN(m, for {
      s <- Gen.choose(0, n - 1)
      d <- Gen.choose(0, n - 1)
      p <- Gen.choose(0.0, 1.0)
    } yield (s, d, p))
  } yield (n, edges)

  property("degree sums equal edge count") = Prop.forAll(genGraph) { case (n, edges) =>
    val g = CompactGraph.fromEdges(n, edges)
    (0 until n).map(g.outDeg).sum == g.m && (0 until n).map(g.inDeg).sum == g.m
  }

  property("out-adjacency recovers the edge list") = Prop.forAll(genGraph) { case (n, edges) =>
    val g = CompactGraph.fromEdges(n, edges)
    val recovered = (0 until n).flatMap { v =>
      val b = Seq.newBuilder[(Int, Int, Double)]
      g.foreachOutEdge(v)(e => b += ((g.srcs(e), g.dsts(e), g.probs(e))))
      b.result()
    }
    recovered.sorted == edges.sorted
  }

  property("in-adjacency recovers the edge list") = Prop.forAll(genGraph) { case (n, edges) =>
    val g = CompactGraph.fromEdges(n, edges)
    val recovered = (0 until n).flatMap { v =>
      val b = Seq.newBuilder[(Int, Int, Double)]
      g.foreachInEdge(v)(e => b += ((g.srcs(e), g.dsts(e), g.probs(e))))
      b.result()
    }
    recovered.sorted == edges.sorted
  }

  property("in-edge ids ascend per node") = Prop.forAll(genGraph) { case (n, edges) =>
    val g = CompactGraph.fromEdges(n, edges)
    (0 until n).forall { v =>
      val ids = g.inEdgesOf(v)
      ids.sameElements(ids.sorted)
    }
  }

  property("weightedCascade in-probabilities sum to 1 for indeg>0") =
    Prop.forAll(genGraph) { case (n, edges) =>
      val g = CompactGraph.weightedCascade(n, edges.map(e => (e._1, e._2)))
      (0 until n).filter(g.inDeg(_) > 0).forall { v =>
        math.abs(g.inEdgesOf(v).map(g.probs).sum - 1.0) < 1e-9
      }
    }
}
