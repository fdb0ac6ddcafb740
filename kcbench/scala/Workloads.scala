package kcbench

import repro.core.KCoreConfig
import repro.graph.GraphGen
import repro.graph.GraphGen.EdgeList

/** One benchmark workload: a seeded raw edge list, the preset it runs, and
  * what one timed call is. With `pipeline` a call is `ParallelKCore.runDF`
  * from the raw edges to collected coreness rows; otherwise it is one
  * `ParallelKCore.run` over a handle prepared once during set-up.
  */
final case class Workload(
    name: String,
    cfg: KCoreConfig,
    pipeline: Boolean,
    warmupCalls: Int,
    generate: Long => (Int, EdgeList))

/** The workloads. Each stresses different layers; README.md gives the
  * purpose of each and which metrics it should move.
  */
object Workloads {
  import GraphGen._

  /** TW shape: preferential attachment, a planted dense core and celebrity
    * hubs that enter sample mode, so many decrements cross partitions.
    */
  private def hubGraph(seed: Long): (Int, EdgeList) = {
    val n = 25000
    val el = new EdgeList
    ba(el, n, 8, seed)
    erBlock(el, 160, 0.35, seed + 1, offset = 0)
    hubs(el, n, 12, 0.30, seed + 2)
    (n, el)
  }

  /** Road shape: a grid with some diagonals (kmax 3 or 4), fed raw. */
  private def roadGrid(seed: Long): (Int, EdgeList) = {
    val rows = 320
    val cols = 320
    val el = new EdgeList
    grid2d(el, rows, cols, 0.08, seed)
    (rows * cols, el)
  }

  val all: Seq[Workload] = Seq(
    Workload("hub-online", KCoreConfig.ours, pipeline = false, warmupCalls = 4, hubGraph),
    Workload("sparse-pipeline", KCoreConfig.ours, pipeline = true, warmupCalls = 8, roadGrid),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (one of ${all.map(_.name).mkString(", ")})"))
}
