package repro.diffusion

/** Influence propagation models (§2.1). Both are handled through their
  * live-edge characterizations, which makes realizations, reverse sampling and
  * forward simulation uniform across models.
  */
sealed trait DiffusionModel extends Serializable { def name: String }

object DiffusionModel {

  /** Independent Cascade: every edge is live independently w.p. p(e). */
  case object IC extends DiffusionModel { val name = "IC" }

  /** Linear Threshold via live-edge view: each node picks at most one
    * incoming edge, edge e=(u,v) with probability p(e), none with
    * 1 − Σ_in p. Weighted cascade (p = 1/indeg) always picks exactly one.
    */
  case object LT extends DiffusionModel { val name = "LT" }

  val all: Seq[DiffusionModel] = Seq(IC, LT)
}
