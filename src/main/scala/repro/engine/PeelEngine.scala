package repro.engine

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.KCoreConfig

/** Raised when a sampled vertex's exact recount shows it missed its peeling
  * round (paper §4.1.4) — the caller restarts with sampling disabled.
  */
final class SamplingError(msg: String) extends RuntimeException(msg)

/** Weights used when folding counters into the modeled critical path. */
object CostWeights {
  /** Unit-ops charged per serialized atomic update at a contended vertex.
    * Under contention every CAS costs a cross-core cache-line transfer plus
    * retries (~50–100 ns on the paper's 4-socket Xeons vs ~1 ns per plain
    * op), and the updates to one location are inherently serial — so the
    * hottest vertex contributes maxInbound × this weight to the subround's
    * critical path.
    */
  val Contention = 64
}

/** Aggregated metrics of one parallel k-core run (feeds the cost model and
  * the table harnesses).
  *
  * @param rounds            rounds executed (round 0 included): a round whose
  *                          key no partition can act at is skipped, not
  *                          executed (DESIGN.md §5)
  * @param subrounds         total BSP subrounds executed (Spark jobs — each
  *                          one pays the scheduling overhead ω)
  * @param subroundsNonEmpty subrounds that peeled ≥ 1 vertex — the paper's
  *                          peeling complexity ρ (ρ′ with VGC)
  * @param spanOps           Σ over subrounds of the max per-partition work —
  *                          the modeled critical path excluding ω
  * @param maxContention     max messages landing on a single vertex in one
  *                          subround (the atomic-contention analogue)
  */
final case class RunMetrics(
    algo: String,
    wallMillis: Double,
    rounds: Int,
    subrounds: Int,
    subroundsNonEmpty: Int,
    work: Long,
    edgeTraversals: Long,
    structOps: Long,
    histogramOps: Long,
    decMsgs: Long,
    hitMsgs: Long,
    localDecs: Long,
    inboundApplied: Long,
    maxContention: Int,
    spanOps: Long,
    maxSampled: Int,
    restarts: Int)

/** The BSP peeling engine: driver-orchestrated subrounds over an
  * `RDD[PartitionState]`, with broadcast inboxes and collected outboxes.
  * See DESIGN.md §5 for the full protocol.
  */
object PeelEngine {

  /** Every this many subrounds the state is locally checkpointed, bounding
    * the lineage of the per-subround RDD chain.
    */
  private val CheckpointEvery = 16

  private val JobDescription = "spark.job.description"

  /** Run k-core under `cfg` over a cached base graph. Restarts without
    * sampling if a recount detects a missed peel (never observed with the
    * default μ — exercised in tests by forcing a tiny μ). Each subround's
    * job is described as `kcore <name> k=<k> sub=<subround>`; the caller's
    * job description is restored on return.
    */
  def run(base: RDD[PartitionGraph], n: Int, maxDeg: Int, cfg: KCoreConfig): (Array[Int], RunMetrics) = {
    val sc = base.sparkContext
    val callerDescription = sc.getLocalProperty(JobDescription)
    var attempt = cfg
    var restarts = 0
    try {
      while (true) {
        try {
          val (core, m) = runOnce(base, n, maxDeg, attempt)
          return (core, m.copy(restarts = restarts))
        } catch {
          case e: SamplingError =>
            require(attempt.sampling.isDefined, s"sampling error without sampling: ${e.getMessage}")
            restarts += 1
            attempt = attempt.withoutSampling
        }
      }
      throw new IllegalStateException("unreachable")
    } finally sc.setLocalProperty(JobDescription, callerDescription)
  }

  private def runOnce(base: RDD[PartitionGraph], n: Int, maxDeg: Int,
                      cfg: KCoreConfig): (Array[Int], RunMetrics) = {
    val sc = base.sparkContext
    val nParts = base.getNumPartitions
    val t0 = System.nanoTime()

    // Subround 0 builds the partition states.
    var state: RDD[PartitionState] = base.mapPartitions(
      it => it.map(g => PartitionState.init(g, cfg, maxDeg)), preservesPartitioning = true)
    var prevCached: RDD[_] = state
    var in = SubroundIn.initial(nParts)

    // --- metrics: one counter total plus per-subround maxima -----------------
    var k = 0
    var sub = 0
    var rounds = 0
    var rhoPrime = 0
    var total = SubCounters.zero
    var spanOps = 0L
    var maxSampled = 0

    var done = false
    while (!done) {
      if (in.roundStart) rounds += 1
      sc.setJobDescription(s"kcore ${cfg.name} k=$k sub=$sub")
      val bc = sc.broadcast(in)
      val pair = state.mapPartitionsWithIndex({ (_, it) =>
        it.map { st0 =>
          val st = st0.deepCopy()
          val out = SubroundProcessor.process(st, bc.value, cfg)
          (st, out)
        }
      }, preservesPartitioning = true)
      if (sub % CheckpointEvery == CheckpointEvery - 1) pair.localCheckpoint()
      else pair.persist(StorageLevel.MEMORY_ONLY)
      val outs = pair.map(_._2).collect().sortBy(_.pid).toSeq
      bc.unpersist(false)
      prevCached.unpersist(false)
      prevCached = pair
      state = pair.map(_._1)
      sub += 1

      // --- aggregate --------------------------------------------------------
      val subTotal = outs.iterator.map(_.counters).reduce(_ combine _)
      total = total combine subTotal
      // Subround critical path: the longest serial chain (a single local
      // search — unbounded for PKC, ≤128 for VGC) plus the serialized
      // contention at the hottest vertex (atomic updates to one location
      // serialize; each costs ~ContentionWeight cache transfers).
      spanOps += outs.iterator.map { o =>
        o.counters.maxChainOps + CostWeights.Contention.toLong * o.counters.maxInboundPerVertex
      }.max
      if (subTotal.frontierProcessed > 0) rhoPrime += 1
      maxSampled = math.max(maxSampled, outs.iterator.map(_.sampled.length).sum)
      if (outs.exists(_.error) && cfg.sampling.isDefined)
        throw new SamplingError(s"missed peel detected at round $k subround $sub")

      // --- route ------------------------------------------------------------
      val decs = Array.tabulate(nParts)(p => Array.concat(outs.map(_.outDecs(p)): _*))
      val hits = Array.tabulate(nParts)(p => Array.concat(outs.map(_.outHits(p)): _*))
      val roundEnds = outs.forall(o => o.localFrontierSize == 0 && o.pendingRecounts == 0) &&
        decs.forall(_.isEmpty) && hits.forall(_.isEmpty)
      if (roundEnds && outs.iterator.map(_.peeledOwnedTotal).sum >= n) done = true
      else {
        // Skip the rounds no partition can act in: none has a selectable
        // vertex at those keys or a sampled vertex failing validation there.
        if (roundEnds) k = math.max(k + 1, outs.iterator.map(_.nextKey).min)
        in = SubroundIn(k, roundEnds, sub, decs, hits,
          Array.concat(outs.map(_.newlyPeeled): _*),
          // Owners hold contiguous ranges, so pid order is ascending order.
          Array.concat(outs.map(_.sampled): _*),
          Array.concat(outs.map(_.sampledRate): _*))
      }
    }

    // --- collect result -----------------------------------------------------
    sc.setJobDescription(s"kcore ${cfg.name} collect")
    val core = new Array[Int](n)
    state.flatMap { st =>
      st.core.indices.iterator.map(i => (st.g.lo + i, st.core(i)))
    }.collect().foreach { case (v, c) => core(v) = c }
    prevCached.unpersist(false)

    val wall = (System.nanoTime() - t0) / 1e6
    val metrics = RunMetrics(cfg.name, wall, rounds, sub, rhoPrime, total.work,
      total.edgeTraversals, total.structOps, total.histogramOps, total.decMsgs,
      total.hitMsgs, total.localDecs, total.inboundApplied, total.maxInboundPerVertex,
      spanOps, maxSampled, 0)
    (core, metrics)
  }
}
