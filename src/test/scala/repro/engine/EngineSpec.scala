package repro.engine

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.graph.LocalGraph
import repro.sampling.SamplingParams
import repro.seq.SeqKCore

/** End-to-end correctness of the BSP peeling engine: every configuration
  * must reproduce BZ's coreness exactly, on every test graph.
  */
class EngineSpec extends SparkSpec {

  private def check(g: LocalGraph, cfg: KCoreConfig, nParts: Int = 4): RunMetrics = {
    val handle = ParallelKCore.prepareLocal(spark, g, nParts)
    try {
      val (core, metrics) = ParallelKCore.run(handle, cfg)
      val expected = SeqKCore.bz(g)
      assert(core.toSeq == expected.toSeq, s"${cfg.name} wrong coreness")
      metrics
    } finally handle.unpersist()
  }

  private val graphs: Seq[(String, LocalGraph)] = Seq(
    "figure1" -> TestGraphs.figure1,
    "random-sparse" -> TestGraphs.random(300, 700, 1),
    "random-dense" -> TestGraphs.random(200, 3000, 2),
    "grid-16x16" -> TestGraphs.grid(16, 16),
    "clique-20" -> TestGraphs.clique(20),
    "path-50" -> TestGraphs.path(50),
    "caterpillar" -> TestGraphs.smallCaterpillar,
    "hcns-25" -> TestGraphs.smallHcns(25, 60),
  )

  private val presets = KCoreConfig.presets

  // 5 presets × 8 graphs
  for ((gname, g) <- graphs; cfg <- presets) {
    test(s"${cfg.name} == BZ on $gname") { check(g, cfg) }
  }

  // All 8 technique combos on two representative graphs.
  for (cfg <- KCoreConfig.combos; gname <- Seq("random-dense", "caterpillar")) {
    test(s"combo ${cfg.name} == BZ on $gname") {
      check(graphs.toMap.apply(gname), cfg)
    }
  }

  test("nParts = 1 degenerates gracefully") {
    check(TestGraphs.random(100, 500, 3), KCoreConfig.ours, nParts = 1)
  }

  test("nParts larger than needed still works") {
    check(TestGraphs.random(40, 120, 4), KCoreConfig.ours, nParts = 16)
  }

  test("the handle's partition count wins over cfg.nParts") {
    check(TestGraphs.random(200, 1500, 11), KCoreConfig.ours.copy(nParts = 16), nParts = 3)
  }

  test("isolated vertices get coreness 0") {
    val g = LocalGraph.fromEdgeSeq(10, Seq((0, 1), (2, 3)))
    check(g, KCoreConfig.ours)
  }

  test("deterministic across runs (same seed)") {
    val g = TestGraphs.random(200, 1500, 5)
    val h = ParallelKCore.prepareLocal(spark, g, 4)
    try {
      val (c1, m1) = ParallelKCore.run(h, KCoreConfig.ours)
      val (c2, m2) = ParallelKCore.run(h, KCoreConfig.ours)
      assert(c1.toSeq == c2.toSeq)
      assert(m1.subrounds == m2.subrounds)
      assert(m1.work == m2.work)
    } finally h.unpersist()
  }

  test("active-set strategies skip empty rounds; ParK and PKC step every level") {
    // kmax = 20 with four distinct coreness values, none of them 0.
    val g = TestGraphs.random(200, 3000, 2)
    val expected = SeqKCore.bz(g)
    val kmax = expected.max
    assert(kmax == 20 && expected.distinct.length == 4 && expected.min > 0)
    val handle = ParallelKCore.prepareLocal(spark, g, 4)
    try {
      def rounds(cfg: KCoreConfig): Int = {
        val (core, m) = ParallelKCore.run(handle, cfg)
        assert(core.toSeq == expected.toSeq, s"${cfg.name} wrong coreness")
        m.rounds
      }
      // Round 0 plus one round per distinct coreness value.
      assert(rounds(KCoreConfig.ours) == 5)
      assert(rounds(KCoreConfig.plain) == 5)
      // Julienne's next-bucket stops at every 16-key window boundary.
      assert(rounds(KCoreConfig.julienne) < kmax + 1)
      assert(rounds(KCoreConfig.park) == kmax + 1)
      assert(rounds(KCoreConfig.pkc) == kmax + 1)
    } finally handle.unpersist()
  }

  test("subround jobs are described by k and subround; the caller's description is restored") {
    val sc = spark.sparkContext
    val described = "kcore Described k=\\d+ sub=(\\d+)".r
    val subs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).foreach {
          case described(sub) => subs.add(sub.toInt)
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    sc.setJobDescription("caller's job")
    try {
      val m = check(TestGraphs.random(100, 500, 3), KCoreConfig.ours.copy(name = "Described"))
      assert(sc.getLocalProperty("spark.job.description") == "caller's job")
      // Listener events arrive asynchronously: wait a bounded time for them.
      val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
      while (subs.size < m.subrounds && System.nanoTime() < deadline) Thread.sleep(20)
      assert(subs.size == m.subrounds && (0 until m.subrounds).forall(subs.contains(_)))
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }
  }

  // ---- sampling-specific behaviour ----------------------------------------

  private def lowThreshold = SamplingParams(threshold = 48)

  test("sampling triggers on a hub graph and stays correct") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val cfg = KCoreConfig.ours.copy(sampling = Some(lowThreshold))
    val m = check(g, cfg)
    assert(m.maxSampled > 0, "expected sample mode to engage")
    assert(m.restarts == 0)
  }

  test("sampling reduces messages into hubs") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val mSampled = check(g, KCoreConfig.ours.copy(sampling = Some(lowThreshold)))
    val mPlain = check(g, KCoreConfig.ours.copy(sampling = None))
    assert(mSampled.maxContention < mPlain.maxContention,
      s"sampled=${mSampled.maxContention} plain=${mPlain.maxContention}")
  }

  test("adversarially tiny mu forces the Las-Vegas restart and stays correct") {
    // mu below the Chernoff regime makes validation unreliable → the engine
    // must detect the missed peel and restart without sampling.
    val g = TestGraphs.hubby(1200, 2, 0.4, 7)
    val cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 16, c = -1.95)))
    val handle = ParallelKCore.prepareLocal(spark, g, 4)
    try {
      val (core, metrics) = ParallelKCore.run(handle, cfg)
      assert(core.toSeq == SeqKCore.bz(g).toSeq)
      // With this graph, seed and 4 partitions the recount trips exactly
      // once; the restart re-runs from subround 0 without sampling.
      assert(metrics.restarts == 1)
    } finally handle.unpersist()
  }

  // ---- technique effect assertions ----------------------------------------

  test("VGC reduces subrounds on the grid (rho' << rho)") {
    val g = TestGraphs.grid(40, 40)
    val mPlain = check(g, KCoreConfig.plain)
    val mVgc = check(g, KCoreConfig.plain.copy(name = "VGC", vgcQueue = 128))
    assert(mVgc.subroundsNonEmpty < mPlain.subroundsNonEmpty / 2,
      s"vgc=${mVgc.subroundsNonEmpty} plain=${mPlain.subroundsNonEmpty}")
  }

  test("VGC reduces subrounds on the caterpillar") {
    val g = TestGraphs.smallCaterpillar
    val mPlain = check(g, KCoreConfig.plain)
    val mVgc = check(g, KCoreConfig.plain.copy(name = "VGC", vgcQueue = 128))
    assert(mVgc.subroundsNonEmpty < mPlain.subroundsNonEmpty)
  }

  test("engine rho (offline) matches the sequential framework rho") {
    val g = TestGraphs.grid(20, 20)
    val seqRho = SeqKCore.framework(g).rho
    val m = check(g, KCoreConfig.julienne)
    assert(m.subroundsNonEmpty == seqRho, s"engine=${m.subroundsNonEmpty} seq=$seqRho")
  }

  test("ParK does more frontier-extraction work than ours on HCNS") {
    val g = TestGraphs.smallHcns(40, 400)
    val mPark = check(g, KCoreConfig.park)
    val mOurs = check(g, KCoreConfig.ours)
    assert(mPark.structOps > 3 * mOurs.structOps,
      s"park=${mPark.structOps} ours=${mOurs.structOps}")
  }

  test("PKC peels whole chains in one subround on a path") {
    val g = TestGraphs.path(120)
    val mPkc = check(g, KCoreConfig.pkc)
    // The path lives in 4 partitions: chains stop only at partition borders.
    assert(mPkc.subroundsNonEmpty <= 10, s"pkc=${mPkc.subroundsNonEmpty}")
  }

  test("work is O(n + m): bounded against the plain engine's accounting") {
    val g = TestGraphs.random(400, 3000, 8)
    val m = check(g, KCoreConfig.plain)
    val bound = 20L * (g.n + g.adj.length)
    assert(m.work < bound, s"work=${m.work} bound=$bound")
  }

  test("metrics: every vertex processed exactly once") {
    val g = TestGraphs.random(300, 2000, 9)
    val handle = ParallelKCore.prepareLocal(spark, g, 4)
    try {
      presets.foreach { cfg =>
        val (_, m) = ParallelKCore.run(handle, cfg)
        assert(m.edgeTraversals == g.adj.length.toLong, s"${cfg.name}")
      }
    } finally handle.unpersist()
  }

  // ---- input validation ---------------------------------------------------

  /** Out-of-range edges for n = 4, each sent after the valid edge (0, 1). */
  private val badEdges = Seq(
    "src >= n" -> (5, 1), "dst >= n" -> (1, 5), "negative id" -> (-1, 2))

  private def assertOutOfRange(body: => Any): Unit = {
    val e = intercept[Throwable](body)
    val chain = Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" <- ")
    assert(chain.contains("out of range"), chain)
  }

  test("prepare rejects vertex ids outside [0, n)") {
    import spark.implicits._
    for ((shape, edge) <- badEdges) withClue(shape) {
      assertOutOfRange(ParallelKCore.prepare(spark, Seq((0, 1), edge).toDF("src", "dst"), 4, 2))
    }
  }

  test("runDF rejects vertex ids outside [0, n)") {
    import spark.implicits._
    for ((shape, edge) <- badEdges) withClue(shape) {
      assertOutOfRange(ParallelKCore.runDF(spark, Seq((0, 1), edge).toDF("src", "dst"), 4,
        KCoreConfig.ours.copy(nParts = 2)))
    }
  }

  test("runDF round trip returns a coreness DataFrame") {
    val g = TestGraphs.random(150, 600, 10)
    val df = repro.graph.GraphOps.toDF(spark, g)
    val (out, _) = ParallelKCore.runDF(spark, df, g.n, KCoreConfig.ours)
    val got = out.collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    val expected = SeqKCore.bz(g)
    (0 until g.n).foreach(v => assert(got(v) == expected(v), s"vertex $v"))
  }
}
