package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.{ExpConfig, Table3}

/** Reproduces Table 3: improvement ratio of ASTI over ATEUC in the number of
  * seed nodes, per threshold fraction, under IC and LT. N/A marks cells where
  * ATEUC's non-adaptive seed set misses η on at least one realization —
  * exactly the paper's N/A semantics.
  *
  * Scale and realization count come from REPRO_SCALE / REPRO_REALIZATIONS
  * (defaults: mini-scale grid, 3 realizations; the paper used 20).
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: ASTI vs ATEUC improvement ratio grid") {
    val cells = Table3.run()
    println()
    Table3.report(cells, ExpConfig.realizations)

    // Core claims of the table, asserted as shape:
    // (1) ASTI reaches η on every realization (enforced inside runCell).
    // (2) Where ATEUC is feasible on all realizations AND the cell has
    //     meaningful granularity (≥3 seeds), ATEUC needs more seeds than
    //     ASTI in the clear majority of cells (paper: 30–40% more). Cells
    //     with 1–2 seeds are excluded — like the paper's η/n=0.01 column,
    //     they sit at 0.0% by integer effects.
    val defined = cells.filter(_.improvement.isDefined)
    assert(defined.nonEmpty, "no cell had a fully-feasible ATEUC run")
    val meaningful = defined.filter(_.astiAvgSeeds >= 3)
    if (meaningful.nonEmpty) {
      val positive = meaningful.count(_.improvement.get > 0)
      assert(positive.toDouble / meaningful.size >= 0.6,
             s"ASTI should beat ATEUC on most meaningful cells: $positive/${meaningful.size}")
    }
    // (3) ATEUC misses η on some realizations somewhere in the grid (the
    //     unreliability of non-adaptive selection that motivates ASM).
    assert(cells.exists(c => c.feasibleRealizations < c.realizations),
           "expected at least one N/A cell across the grid")
  }
}
