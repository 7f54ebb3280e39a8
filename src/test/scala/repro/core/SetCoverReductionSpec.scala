package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.diffusion.DiffusionModel.IC
import repro.graph.{CompactGraph, GraphGen}

/** The p=1 regime: Lemma 3.5 observes that with deterministic edges ASM
  * degenerates to (partial) set cover — each node's "cover set" is its
  * deterministic reachable set. In this regime every algorithm's behaviour is
  * exactly checkable, which pins down the adaptive machinery end-to-end.
  */
class SetCoverReductionSpec extends AnyFunSuite {

  /** A bipartite covering instance: chooser nodes 0..2 point at disjoint-ish
    * element blocks; p=1 everywhere.
    *   node 0 -> elements 3,4,5,6   (cover size 5 incl. itself)
    *   node 1 -> elements 5,6,7     (cover size 4)
    *   node 2 -> elements 7,8       (cover size 3)
    */
  private val coverGraph: CompactGraph = CompactGraph.fromEdges(9, Seq(
    (0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0), (0, 6, 1.0),
    (1, 5, 1.0), (1, 6, 1.0), (1, 7, 1.0),
    (2, 7, 1.0), (2, 8, 1.0)))

  test("greedy cover: η=5 is satisfied by the largest cover set alone") {
    val res = Asti.run(coverGraph, 5, 0.3, TrimSelector, IC, 1L)
    assert(res.seeds == Vector(0))
    assert(res.finalSpread == 5)
  }

  test("greedy cover: η=7 takes node 0 then the best residual cover") {
    val res = Asti.run(coverGraph, 7, 0.3, TrimSelector, IC, 2L)
    assert(res.seeds.head == 0)
    assert(res.numSeeds == 2)
    // Residual covers after removing {0,3,4,5,6}: node1 -> {1,7} (2),
    // node2 -> {2,7,8} (3). Greedy takes node 2.
    assert(res.seeds(1) == 2)
    assert(res.finalSpread == 8)
  }

  test("greedy cover: η=9 needs all three choosers") {
    val res = Asti.run(coverGraph, 9, 0.3, TrimSelector, IC, 3L)
    assert(res.seeds.toSet == Set(0, 1, 2))
    assert(res.finalSpread == 9)
  }

  test("truncation changes the greedy choice when spare coverage is worthless") {
    // η=3: node 2 covers exactly 3 (itself + 2 elements); nodes 0/1 overshoot.
    // All are truncated to 3, so any single node is optimal — the policy must
    // pick exactly one seed.
    val res = Asti.run(coverGraph, 3, 0.3, TrimSelector, IC, 4L)
    assert(res.numSeeds == 1)
  }

  test("batched policy solves the η=9 instance in one round") {
    val res = Asti.run(coverGraph, 9, 0.3, TrimBSelector(3), IC, 5L)
    assert(res.rounds == 1)
    assert(res.seeds.toSet == Set(0, 1, 2))
  }

  test("chain cover: adaptive policy walks disjoint chains") {
    // Three disjoint p=1 chains of lengths 5, 3, 2.
    val edges = (0 until 4).map(i => (i, i + 1, 1.0)) ++
      Seq((5, 6, 1.0), (6, 7, 1.0), (8, 9, 1.0))
    val g = CompactGraph.fromEdges(10, edges)
    val res = Asti.run(g, 8, 0.3, TrimSelector, IC, 6L)
    // Chain heads in descending cover size: node 0 (5), node 5 (3) → total 8.
    assert(res.seeds == Vector(0, 5))
  }

  test("deterministic spread equals cover size for every node") {
    val real = new repro.diffusion.Realization(coverGraph, IC, 99L)
    assert(real.spread(Array(0)) == 5)
    assert(real.spread(Array(1)) == 4)
    assert(real.spread(Array(2)) == 3)
    (3 until 9).foreach(v => assert(real.spread(Array(v)) == 1))
  }

  test("two-clique set cover with η = n via batching") {
    val g = GraphGen.twoCliques(4, 1.0)
    val res = Asti.run(g, 8, 0.3, TrimBSelector(2), IC, 7L)
    assert(res.rounds == 1 && res.finalSpread == 8)
    assert(res.seeds.map(_ / 4).toSet == Set(0, 1))
  }
}
