package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.experiments.{ExpConfig, Table2}

/** Reproduces Table 2 (dataset statistics) on the synthetic substitutes at
  * bench scale. Prints measured vs paper values; EXPERIMENTS.md records both.
  */
class Table2Bench extends AnyFunSuite with SparkSpec {

  test("Table 2: dataset statistics") {
    val rows = Table2.run(spark)
    println()
    Table2.report(rows, ExpConfig.scale)

    // Shape assertions mirroring what the paper reads off Table 2.
    val byName = rows.map(r => r.name -> r).toMap
    // Directedness matches.
    assert(!byName("nethept").directed && byName("epinions").directed)
    assert(!byName("youtube").directed && byName("livejournal").directed)
    // Degree ordering: epinions and livejournal are the dense ones.
    assert(byName("epinions").avgDeg > byName("nethept").avgDeg)
    assert(byName("livejournal").avgDeg > byName("youtube").avgDeg)
    // Nodes are highly interconnected: LWCC holds most of the graph.
    rows.foreach(r => assert(r.lwcc > r.n * 0.3, s"${r.name}: lwcc=${r.lwcc} n=${r.n}"))
  }
}
