package kcbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.kcbench.{GroupTotals, JobTrace}
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{GraphHandle, ParallelKCore}
import repro.engine.RunMetrics
import repro.graph.{GraphOps, LocalGraph}
import repro.model.CostModel
import repro.seq.SeqKCore
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** The k-core benchmark: one workload, one seed, one JVM on `local[C]`.
  *
  * Set-up builds the workload's graph `SetupReps` times (generate, BZ oracle,
  * prepare) and warms up with a fixed number of calls. Then it calls the
  * workload for `--seconds`, checking every call against BZ.
  * With `--trace 0` no listener is registered and the end-to-end metrics are
  * printed; with `--trace 1` untraced and traced calls alternate and the
  * per-layer metrics are printed. Every layer is measured from outside: call
  * timings, the `RunMetrics` each run returns, and Spark job/task metrics of
  * the job group the benchmark sets around each traced call.
  *
  * The last stdout line is the result JSON; earlier lines are provenance and
  * a human-readable summary.
  */
object KCoreBench {
  private val SetupReps = 4

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        cores: Int, workDir: Path, rev: String)

  /** One call: its wall, whether its coreness equaled BZ, the engine's
    * metrics (null if it threw), and the listener totals (null untraced).
    */
  final case class Call(wallS: Double, ok: Boolean, metrics: RunMetrics, totals: GroupTotals,
                        gcS: Double, cpuS: Double)

  /** One set-up repetition's timings; `handle` is kept only from the last. */
  final case class Built(g: LocalGraph, raw: DataFrame, handle: GraphHandle, wallS: Double,
                         generateS: Double, prepareS: Double, bzS: Double, bz: Array[Int],
                         shuffleBytes: Long)

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workloads.byName(o.workload)
    val nParts = o.cores
    val cfg = wl.cfg.copy(nParts = nParts)

    val t0 = System.nanoTime()
    val spark = session(o)
    val sc = spark.sparkContext
    val sessionS = since(t0)
    val trace = if (o.trace) Some(new JobTrace) else None
    trace.foreach(sc.addSparkListener)

    try {
      // --- set-up: build the graph SetupReps times, keep the last handle ----
      val reps = (1 to SetupReps).map { r =>
        val b = build(spark, wl, o.seed, nParts, trace)
        if (r < SetupReps) b.handle.unpersist()
        b
      }
      val built = reps.last
      val g = built.g
      val oracle = built.bz
      require(reps.forall(b => java.util.Arrays.equals(b.bz, oracle)), "set-up is not deterministic")
      if (wl.pipeline) built.handle.unpersist()

      val runOnce: () => (Boolean, RunMetrics) =
        if (wl.pipeline) () => {
          val (df, m) = ParallelKCore.runDF(spark, built.raw, g.n, cfg)
          (rowsMatch(df.collect().map(r => (r.getInt(0), r.getInt(1))), oracle), m)
        } else () => {
          val (core, m) = ParallelKCore.run(built.handle, cfg)
          (java.util.Arrays.equals(core, oracle), m)
        }

      def call(): Call = {
        val gc0 = gcMillis(); val cpu0 = cpuNanos(); val t = System.nanoTime()
        val (ok, m) =
          try runOnce()
          catch { case e: Exception => Console.err.println(s"call failed: $e"); (false, null) }
        Call(since(t), ok, m, null, (gcMillis() - gc0) / 1e3, (cpuNanos() - cpu0) / 1e9)
      }

      def tracedCall(tr: JobTrace): Call = {
        sc.addSparkListener(tr)
        val c = grouped(sc, "call")(call())._1
        val totals = tr.take(sc, "call")
        sc.removeSparkListener(tr)
        c.copy(totals = totals)
      }

      // --- warm-up: a fixed number of checked calls -----------------------
      trace.foreach(sc.removeSparkListener)
      val tw = System.nanoTime()
      val warm = Seq.fill(wl.warmupCalls)(call())
      val warmupS = since(tw)
      val setupS = sessionS + median(reps.map(_.wallS)) + warmupS

      // --- traced runs only: the Catalyst symmetrize of the raw edges, run to
      // completion (count must compute every distinct edge) ---------------
      val symmetrizeRuns = trace.toSeq.flatMap { tr =>
        sc.addSparkListener(tr)
        val runs = Seq.fill(SetupReps) {
          val s = grouped(sc, "symmetrize")(GraphOps.symmetrize(built.raw).count())._2
          (s, tr.take(sc, "symmetrize").shuffleBytes)
        }
        sc.removeSparkListener(tr)
        runs
      }

      // --- measurement ------------------------------------------------------
      resetHeapPeaks()
      val untraced = ArrayBuffer.empty[Call]
      val traced = ArrayBuffer.empty[Call]
      val tEnd = System.nanoTime() + (o.seconds * 1e9).toLong
      // Traced runs alternate which of the pair goes first, so a trend in
      // call time does not show up as tracing overhead.
      do {
        val tracedFirst = trace.isDefined && untraced.size % 2 == 1
        if (tracedFirst) trace.foreach(tr => traced += tracedCall(tr))
        untraced += call()
        if (!tracedFirst) trace.foreach(tr => traced += tracedCall(tr))
      } while (System.nanoTime() < tEnd)
      val heapPeakMb = heapPeakBytes() / (1024.0 * 1024.0)

      // --- correctness and determinism ---------------------------------------
      val all = warm ++ untraced ++ traced
      val failed = all.count(!_.ok)
      val drift = countDrift(all, traced.toSeq) ++ crossRunDrift(o, all, traced.toSeq)
      drift.foreach(d => Console.err.println(s"COUNT DRIFT: $d"))

      val engineS = (c: Call) => if (wl.pipeline) c.metrics.wallMillis / 1e3 else c.wallS
      val timed = untraced.toSeq
      val decomposeS = median(timed.filter(_.metrics != null).map(engineS))
      // The first repetition pays the JVM's cold DataFrame path; prepare
      // times of the user's pipeline are taken from the warm ones.
      val prepareS = median(reps.tail.map(_.prepareS))
      val pipelineS = if (wl.pipeline) median(timed.map(_.wallS)) else prepareS + decomposeS

      val m = all.iterator.filter(_.metrics != null).map(_.metrics).nextOption()
        .getOrElse(throw new IllegalStateException("every call failed"))
      val provenance = Seq(
        "workload" -> wl.name, "seed" -> o.seed, "rev" -> o.rev,
        "nproc" -> Runtime.getRuntime.availableProcessors, "cores" -> o.cores, "nParts" -> nParts,
        "preset" -> cfg.name, "spark" -> spark.version, "scala" -> scala.util.Properties.versionNumberString,
        "java" -> System.getProperty("java.version"),
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
        "n" -> g.n, "m" -> g.m, "kmax" -> oracle.max, "max_degree" -> g.maxDegree,
        "rounds" -> m.rounds, "subrounds" -> m.subrounds,
        "warmup_calls" -> warm.size, "timed_calls" -> timed.size, "traced_calls" -> traced.size,
        "setup_reps" -> SetupReps)
      println("provenance " + json(provenance))
      println(f"calls attempted=${all.size} failed=$failed failed_frac=${failed.toDouble / all.size}%.4f " +
        f"timed=${timed.size} traced=${traced.size} drift=${drift.size}")
      def walls(cs: Seq[Call]) = cs.map(c => f"${c.wallS}%.3f").mkString(" ")
      println(s"walls_s warmup=[${walls(warm)}] timed=[${walls(timed)}] traced=[${walls(traced.toSeq)}]")
      println(reps.map(b => f"gen=${b.generateS}%.3f bz=${b.bzS}%.3f prep=${b.prepareS}%.3f")
        .mkString("setup_reps_s ", " | ", f" session=$sessionS%.3f warmup=$warmupS%.3f"))

      val metrics: Seq[(String, Double, String)] =
        if (!o.trace) Seq(
          ("decompose_s", decomposeS, "s"),
          ("pipeline_s", pipelineS, "s"),
          ("setup_s", setupS, "s"))
        else {
          val tr = traced.toSeq
          val tt = tr.map(_.totals)
          val distinct = oracle.distinct.length
          val model = CostModel(m)
          Seq(
            ("spark.jobs", median(tt.map(_.jobs.toDouble)), "count"),
            ("spark.job_s", median(tt.map(_.jobMs / 1e3)), "s"),
            ("engine.driver_gap_s", median(tr.map(c => c.wallS - c.totals.jobMs / 1e3)), "s"),
            ("spark.task_launch_s", median(tt.map(_.launchMs / 1e3)), "s"),
            ("spark.task_deser_s", median(tt.map(_.deserMs / 1e3)), "s"),
            ("engine.subrounds", m.subrounds.toDouble, "count"),
            ("engine.rounds", m.rounds.toDouble, "count"),
            ("engine.rho_prime", m.subroundsNonEmpty.toDouble, "count"),
            ("engine.empty_rounds", (m.rounds - distinct).toDouble, "count"),
            ("engine.useful_subround_frac", m.subroundsNonEmpty.toDouble / m.subrounds, "ratio"),
            ("kernel.task_run_s", median(tt.map(_.runMs / 1e3)), "s"),
            ("kernel.task_cpu_s", median(tt.map(_.cpuNs / 1e9)), "s"),
            ("kernel.skew", median(tt.map(_.skew)), "ratio"),
            ("kernel.work", m.work.toDouble, "ops"),
            ("kernel.edge_traversals", m.edgeTraversals.toDouble, "count"),
            ("kernel.local_decs", m.localDecs.toDouble, "count"),
            ("kernel.inbound_applied", m.inboundApplied.toDouble, "count"),
            ("kernel.span_ops", m.spanOps.toDouble, "ops"),
            ("structures.ops", m.structOps.toDouble, "ops"),
            ("structures.histogram_ops", m.histogramOps.toDouble, "ops"),
            ("msg.dec", m.decMsgs.toDouble, "count"),
            ("msg.hit", m.hitMsgs.toDouble, "count"),
            ("msg.max_contention", m.maxContention.toDouble, "count"),
            ("spark.result_bytes", median(tt.map(_.resultBytes.toDouble)), "bytes"),
            ("sampling.max_sampled", m.maxSampled.toDouble, "count"),
            ("sampling.restarts", m.restarts.toDouble, "count"),
            ("graph.generate_s", median(reps.map(_.generateS)), "s"),
            ("graph.symmetrize_s", median(symmetrizeRuns.map(_._1)), "s"),
            ("core.prepare_s", prepareS, "s"),
            ("spark.shuffle_bytes",
              median(symmetrizeRuns.map(_._2.toDouble)) + median(reps.map(_.shuffleBytes.toDouble)), "bytes"),
            ("jvm.gc_s", median(tr.map(_.gcS)), "s"),
            ("jvm.cpu_s", median(tr.map(_.cpuS)), "s"),
            ("jvm.heap_peak_mb", heapPeakMb, "MB"),
            ("model.t96_s", model.tpSeconds, "s"),
            ("model.burdened_span", model.burdenedSpan.toDouble, "ops"),
            ("seq.bz_s", median(reps.map(_.bzS)), "s"),
            ("trace.overhead_s", median(tr.map(_.wallS)) - median(timed.map(_.wallS)), "s"),
            ("failed_frac", failed.toDouble / all.size, "ratio"))
        }
      metrics.foreach { case (k, v, u) => println(f"  $k%-28s $v%14.6f $u") }
      val metricsJson = metrics.map { case (k, v, u) => k -> RawJson(json(Seq("value" -> v, "unit" -> u))) }
      println(json(Seq(
        "correct" -> (failed == 0 && drift.isEmpty),
        "attempted" -> all.size,
        "failed" -> failed,
        "metrics" -> RawJson(json(metricsJson)))))
    } finally spark.stop()
  }

  /** One set-up repetition: generate the graph, compute the BZ oracle, and
    * prepare a handle from the canonical edge DataFrame.
    */
  private def build(spark: SparkSession, wl: Workload, seed: Long, nParts: Int,
                    trace: Option[JobTrace]): Built = {
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    val (n, el) = wl.generate(seed)
    val (srcs, dsts) = (el.srcs, el.dsts)
    val g = LocalGraph.fromPairs(n, srcs, dsts)
    val generateS = since(t0)

    val t1 = System.nanoTime()
    val bz = SeqKCore.bz(g)
    val bzS = since(t1)

    val (handle, prepareS) = grouped(sc, "prepare") {
      ParallelKCore.prepare(spark, GraphOps.toDF(spark, g), n, nParts)
    }
    val shuffleBytes = trace.map(_.take(sc, "prepare").shuffleBytes).getOrElse(0L)
    Built(g, GraphOps.rawToDF(spark, srcs, dsts), handle, since(t0), generateS, prepareS, bzS, bz,
      shuffleBytes)
  }

  /** Runs `body` under job group `group`; returns its result and wall. */
  private def grouped[T](sc: SparkContext, group: String)(body: => T): (T, Double) = {
    sc.setJobGroup(group, s"kcbench $group", interruptOnCancel = false)
    val t0 = System.nanoTime()
    try (body, since(t0)) finally sc.clearJobGroup()
  }

  /** Every vertex appears exactly once, with its BZ coreness. */
  private def rowsMatch(rows: Array[(Int, Int)], oracle: Array[Int]): Boolean = {
    val seen = new Array[Boolean](oracle.length)
    rows.length == oracle.length && rows.forall { case (v, c) =>
      val fresh = v >= 0 && v < oracle.length && !seen(v) && c == oracle(v)
      if (fresh) seen(v) = true
      fresh
    }
  }

  /** The counts a fixed seed must repeat exactly. */
  private def counts(c: Call): Seq[(String, Long)] = {
    val m = c.metrics
    val engine = if (m == null) Nil else Seq(
      "engine.subrounds" -> m.subrounds.toLong, "engine.rounds" -> m.rounds.toLong,
      "engine.rho_prime" -> m.subroundsNonEmpty.toLong, "kernel.work" -> m.work,
      "kernel.edge_traversals" -> m.edgeTraversals, "kernel.local_decs" -> m.localDecs,
      "kernel.inbound_applied" -> m.inboundApplied, "kernel.span_ops" -> m.spanOps,
      "structures.ops" -> m.structOps, "structures.histogram_ops" -> m.histogramOps,
      "msg.dec" -> m.decMsgs, "msg.hit" -> m.hitMsgs, "msg.max_contention" -> m.maxContention.toLong,
      "sampling.max_sampled" -> m.maxSampled.toLong, "sampling.restarts" -> m.restarts.toLong)
    val spark = if (c.totals == null) Nil else Seq("spark.jobs" -> c.totals.jobs)
    engine ++ spark
  }

  /** Counts that differ between calls of this run. */
  private def countDrift(all: Seq[Call], traced: Seq[Call]): Seq[String] = {
    def diff(cs: Seq[Call]): Seq[String] = {
      val ok = cs.filter(_.metrics != null).map(counts)
      ok.headOption.toSeq.flatMap { first =>
        ok.tail.flatMap(cur => first.zip(cur).collect {
          case ((k, a), (_, b)) if a != b => s"$k: $a then $b within one run"
        })
      }.distinct
    }
    diff(all.filter(_.totals == null)) ++ diff(traced)
  }

  /** Counts that differ from an earlier run of the same sources, workload
    * and seed in this checkout; records this run's counts for the next.
    */
  private def crossRunDrift(o: Opts, all: Seq[Call], traced: Seq[Call]): Seq[String] = {
    val now = (all.find(_.metrics != null).toSeq.flatMap(counts) ++
      traced.find(_.metrics != null).toSeq.flatMap(counts)).toMap
    val file = o.workDir.resolve("counts").resolve(o.rev.replaceAll("[^A-Za-z0-9]", "_"))
      .resolve(s"${o.workload}-${o.seed}.txt")
    val before: Map[String, Long] =
      if (Files.exists(file))
        Files.readAllLines(file, UTF_8).asScala.map(_.split(' ')).map(a => a(0) -> a(1).toLong).toMap
      else Map.empty
    Files.createDirectories(file.getParent)
    Files.write(file, (before ++ now).toSeq.sorted.map { case (k, v) => s"$k $v" }.asJava, UTF_8)
    now.toSeq.sorted.collect {
      case (k, v) if before.get(k).exists(_ != v) => s"$k: ${before(k)} in an earlier run, $v now"
    }
  }

  private def session(o: Opts): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName("kcbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.workDir.resolve("spark-local").toString)
      .config("spark.sql.shuffle.partitions", o.cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case a => throw new IllegalArgumentException(s"bad arguments: ${a.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      get("cores").toInt, Paths.get(get("work-dir")), kv.getOrElse("rev", "unknown"))
  }

  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def cpuNanos(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  private def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset. */
  private def heapPeakBytes(): Long = heapPools.map(_.getPeakUsage.getUsed).sum

  private final case class RawJson(s: String)

  private def json(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s""""$k": ${jsonValue(v)}""" }.mkString("{", ", ", "}")

  private def jsonValue(v: Any): String = v match {
    case RawJson(s) => s
    case s: String => "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
    case d: Double => require(!d.isNaN && !d.isInfinite, s"non-finite metric $d"); d.toString
    case x => x.toString
  }
}
