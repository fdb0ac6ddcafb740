package repro.jobs

import repro.core.{KCoreConfig, ParallelKCore}
import repro.graph.{GraphOps, GraphSuite}
import repro.model.CostModel

/** Single-run entrypoint: one suite graph × one algorithm.
  *
  * Usage: spark-submit ... repro.jobs.KCoreJob <graph> [ours|plain|julienne|park|pkc]
  */
object KCoreJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: KCoreJob <graph> [algo]")
    val spark = SparkJob.session("kcore")
    val spec = GraphSuite.byName(args(0))
    val algo = args.lift(1).getOrElse("ours")
    val cfg = KCoreConfig.presets.find(_.name.equalsIgnoreCase(algo))
      .getOrElse(sys.error(s"unknown algo $algo"))
    val g = spec.build()
    // Exercise the full DataFrame surface end to end.
    val edges = GraphOps.toDF(spark, g)
    val (coreDf, metrics) = ParallelKCore.runDF(spark, edges, g.n, cfg)
    val dist = coreDf.groupBy("coreness").count().orderBy("coreness").collect()
    println(s"graph=${spec.name} n=${g.n} m=${g.m} algo=${cfg.name}")
    println(f"wall=${metrics.wallMillis / 1000}%.3fs rounds=${metrics.rounds} subrounds=${metrics.subrounds} " +
      f"rho'=${metrics.subroundsNonEmpty} work=${metrics.work} " +
      f"modeled96=${CostModel.tpSeconds(metrics)}%.4fs")
    println("coreness distribution (coreness -> count):")
    dist.foreach(r => println(s"  ${r.get(0)} -> ${r.get(1)}"))
    spark.stop()
  }
}
