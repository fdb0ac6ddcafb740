package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core._
import repro.sampling.SamplingParams

/** Unit tests of SubroundProcessor on handcrafted partition states — no
  * SparkSession involved; this is the engine's per-partition kernel.
  */
class ProcessorSpec extends AnyFunSuite {

  // Path 0-1-2-3-4-5-6-7, split into two partitions of 4 vertices each.
  private val path = TestGraphs.path(8)
  private def mkState(cfg: KCoreConfig, pid: Int): PartitionState = {
    val parts = Csr.buildLocal(path, 2)
    PartitionState.init(parts(pid), cfg, path.maxDegree)
  }

  private def emptyIn(k: Int, roundStart: Boolean, sub: Int = 1): SubroundIn =
    SubroundIn(k, roundStart, sub,
      Array.fill(2)(Array.emptyLongArray),
      Array.fill(2)(Array.emptyIntArray),
      Array.emptyIntArray, Array.emptyIntArray, Array.emptyDoubleArray)

  /** Inbox of partition 1 holding the given (target, count) decrements. */
  private def decsTo1(msgs: (Int, Int)*): Array[Array[Long]] =
    Array(Array.emptyLongArray, msgs.map { case (t, c) => DecMsg.pack(t, c) }.toArray)

  private def pairs(msgs: Array[Long]): Seq[(Int, Int)] =
    msgs.toSeq.map(m => (DecMsg.target(m), DecMsg.count(m)))

  test("init: induced degrees equal input degrees; nothing peeled") {
    val st = mkState(KCoreConfig.plain, 0)
    assert(st.deg.toSeq == Seq(1, 2, 2, 2))
    assert(st.core.forall(_ == -1))
    assert(st.peeledOwnedCount == 0)
  }

  test("round-start extraction peels the degree-k frontier and emits remote decrements") {
    val st = mkState(KCoreConfig.plain, 0)
    // k=1: vertex 0 (degree 1) is the frontier; peeling it decrements owned 1.
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true), KCoreConfig.plain)
    assert(out.newlyPeeled.toSeq == Seq(0))
    assert(st.core(0) == 1)
    assert(st.deg(1) == 1)
    // Vertex 1 crossed to k → next frontier (no VGC in plain).
    assert(st.frontier.toSeq == Seq(1))
    assert(out.counters.frontierProcessed == 1)
  }

  test("VGC chases the whole owned chain in one subround") {
    val cfg = KCoreConfig.plain.copy(vgcQueue = 128)
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true), cfg)
    // 0 → 1 → 2 → 3 all peel locally; the decrement to remote 4 is a message.
    assert(out.newlyPeeled.toSeq == Seq(0, 1, 2, 3))
    assert(st.frontier.isEmpty)
    assert(pairs(out.outDecs(1)) == Seq((4, 1)))
    assert(out.counters.maxChainOps >= 4)
  }

  test("VGC queue capacity caps the chain") {
    val cfg = KCoreConfig.plain.copy(vgcQueue = 2)
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true), cfg)
    assert(out.newlyPeeled.toSeq == Seq(0, 1))
    assert(st.frontier.toSeq == Seq(2)) // overflow goes to the next frontier
  }

  test("incoming explicit decrement crossing joins this subround's frontier") {
    val st = mkState(KCoreConfig.plain, 1) // owns 4..7, degrees (2,2,2,1)
    val in = emptyIn(1, roundStart = false).copy(decs = decsTo1((4, 1)))
    val out = SubroundProcessor.process(st, in, KCoreConfig.plain)
    // deg(4): 2 → 1 == k → assigned and peeled this subround, decrementing 5.
    assert(st.core(st.li(4)) == 1)
    assert(out.newlyPeeled.toSeq == Seq(4))
    assert(st.deg(st.li(5)) == 1)
  }

  test("decrements to already-assigned vertices are ignored") {
    val st = mkState(KCoreConfig.plain, 1)
    st.core(st.li(4)) = 1 // pretend assigned
    val in = emptyIn(1, roundStart = false).copy(decs = decsTo1((4, 1), (4, 1)))
    val before = st.deg(st.li(4))
    SubroundProcessor.process(st, in, KCoreConfig.plain)
    assert(st.deg(st.li(4)) == before)
  }

  test("an inbound (target, count) decrement applies its whole count") {
    val st = mkState(KCoreConfig.plain, 1) // deg(4) = 2
    val in = emptyIn(1, roundStart = false).copy(decs = decsTo1((4, 2)))
    val out = SubroundProcessor.process(st, in, KCoreConfig.plain)
    assert(st.deg(st.li(4)) == 0)
    assert(out.counters.inboundApplied == 2)
    assert(out.counters.maxInboundPerVertex == 2)
  }

  test("offline peel emits combined (target,count) messages including self") {
    val cfg = KCoreConfig.julienne
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true), cfg)
    // Peeling 0 offline: the single decrement to 1 becomes a self-addressed
    // histogram message, not an immediate application.
    assert(out.newlyPeeled.toSeq == Seq(0))
    assert(st.deg(1) == 2)
    assert(pairs(out.outDecs(0)) == Seq((1, 1)))
    assert(st.frontier.isEmpty)
  }

  test("offline histogram combines duplicate targets") {
    val cfg = KCoreConfig.julienne
    val st = mkState(cfg, 0)
    // Force both 0 and 2 into the frontier at k=2 artificially: set degrees.
    st.deg(0) = 2; st.deg(2) = 2
    st.core(0) = 2; st.core(2) = 2
    st.frontier = Array(0, 2)
    val out = SubroundProcessor.process(st, emptyIn(2, roundStart = false), cfg)
    // Both 0 and 2 decrement vertex 1 → one message (1, 2).
    assert(pairs(out.outDecs(0)).contains((1, 2)))
  }

  test("sample hits to a non-sampled vertex are discarded") {
    val st = mkState(KCoreConfig.plain, 1)
    val in = emptyIn(1, roundStart = false).copy(hits = Array(Array.emptyIntArray, Array(5, 5)))
    SubroundProcessor.process(st, in, KCoreConfig.plain)
    assert(st.deg(st.li(5)) == 2)
    assert(st.cnt(st.li(5)) == 0)
  }

  test("owners report their mode-1 vertices, ascending and distinct, with rates") {
    val st = mkState(KCoreConfig.plain, 0)
    // 3 exited and re-entered this round, so it is listed twice; 2 is exiting.
    st.sampledOwned = Array(3, 1, 2, 3)
    st.mode(1) = 1; st.rateArr(1) = 0.5
    st.mode(2) = 2; st.rateArr(2) = 0.75
    st.mode(3) = 1; st.rateArr(3) = 0.25
    val out = SubroundProcessor.process(st, emptyIn(0, roundStart = false), KCoreConfig.plain)
    assert(out.sampled.toSeq == Seq(1, 3))
    assert(out.sampledRate.toSeq == Seq(0.5, 0.25))
  }

  test("a sampled vertex failing validation before the next live key caps nextKey") {
    // 8-clique over two partitions: every degree is 7, so at k = 0 nothing
    // peels and the strategy's next live key is 7.
    val clique = TestGraphs.clique(8)
    def mk(): PartitionState = PartitionState.init(Csr.buildLocal(clique, 2)(0), KCoreConfig.ours, 7)
    val plain = SubroundProcessor.process(mk(), emptyIn(0, roundStart = true), KCoreConfig.ours)
    assert(plain.nextKey == 7)
    val st = mk()
    st.mode(1) = 1; st.rateArr(1) = 0.5
    st.sampledOwned = Array(1)
    val out = SubroundProcessor.process(st, emptyIn(0, roundStart = true), KCoreConfig.ours)
    assert(out.sampled.toSeq == Seq(1)) // still valid at k = 0
    val sp = KCoreConfig.ours.sampling.get
    assert(out.nextKey == sp.firstInvalidRound(7, 0, 0.5))
    assert(out.nextKey == 1) // r·d = 0.7, so validation fails from k = 1
  }

  test("senders consult the directory: sampled remote targets get hits, not decs") {
    // No local sampling — only the directory entry for remote 4, which every
    // subround's input carries (partitions keep no copy of it).
    val cfg = KCoreConfig.plain
    val st = mkState(cfg, 0)
    // Mark remote vertex 4 as sampled with rate 1.0 → every touch is a hit.
    def withDir(in: SubroundIn): SubroundIn = in.copy(sampled = Array(4), sampledRate = Array(1.0))
    val out = SubroundProcessor.process(st, withDir(emptyIn(1, roundStart = true)), cfg)
    // Chain disabled (vgc 0): subround peels 0 only; no message to 4 yet.
    assert(out.outHits(1).isEmpty && out.outDecs(1).isEmpty)
    // Advance: peel 1,2,3 over subsequent subrounds; 3's neighbor 4 is remote.
    var sub = 2
    var hits = Seq.empty[Int]
    var decs = Seq.empty[Int]
    while (st.frontier.nonEmpty) {
      val o = SubroundProcessor.process(st, withDir(emptyIn(1, roundStart = false, sub)), cfg)
      hits ++= o.outHits(1).toSeq
      decs ++= pairs(o.outDecs(1)).map(_._1)
      sub += 1
    }
    assert(hits == Seq(4))
    assert(decs.isEmpty)
  }

  test("recount: pending vertex recomputes exact degree from the peeled bitmap") {
    val st = mkState(KCoreConfig.ours, 1) // owns 4..7
    val j5 = st.li(5)
    st.mode(j5) = 2
    st.pendingRecount = Array(5)
    st.deg(j5) = 99 // stale estimate
    // Neighbor 4 was peeled remotely (bit arrives in the delta); k=0 keeps
    // the vertex above the frontier so only the recount happens.
    val in = emptyIn(0, roundStart = false).copy(peeledDelta = Array(4))
    SubroundProcessor.process(st, in, KCoreConfig.ours)
    assert(st.deg(j5) == 1) // only neighbor 6 still active
    assert(st.mode(j5) == 0)
    assert(st.core(j5) == -1)
  }

  test("recount below k flags the Las-Vegas error") {
    val st = mkState(KCoreConfig.ours, 1)
    val j7 = st.li(7) // degree 1 (neighbor 6)
    st.mode(j7) = 2
    st.pendingRecount = Array(7)
    val in = emptyIn(3, roundStart = false) // k=3 > true degree 1
    val out = SubroundProcessor.process(st, in, KCoreConfig.ours)
    assert(out.error)
  }

  test("recount landing exactly on k peels the vertex in the same subround") {
    val st = mkState(KCoreConfig.ours, 1)
    val j7 = st.li(7)
    st.mode(j7) = 2
    st.pendingRecount = Array(7)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = false), KCoreConfig.ours)
    assert(!out.error)
    assert(st.core(j7) == 1)
    assert(out.newlyPeeled.contains(7))
  }

  test("peeled-bitmap delta is applied before anything else") {
    val st = mkState(KCoreConfig.plain, 1)
    val in = emptyIn(0, roundStart = false).copy(peeledDelta = Array(0, 1, 2))
    SubroundProcessor.process(st, in, KCoreConfig.plain)
    assert(st.isPeeledBit(1) && st.isPeeledBit(2) && !st.isPeeledBit(3))
  }

  test("SubCounters.combine sums the sums and takes the max of the maxima") {
    val a = SubCounters(10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11)
    val b = SubCounters(20, 2, 4, 6, 8, 10, 12, 14, 3, 30, 22)
    assert((a combine b) == SubCounters(30, 3, 6, 9, 12, 15, 18, 21, 8, 30, 33))
    assert((SubCounters.zero combine a) == a)
  }

  test("deepCopy isolates all mutable state") {
    val st = mkState(KCoreConfig.ours, 0)
    val copy = st.deepCopy()
    copy.deg(0) = 42
    copy.setPeeledBit(3)
    assert(st.deg(0) == 1)
    assert(!st.isPeeledBit(3))
  }
}
