package repro.engine

/** A decrement message: `count` decrements of `target`'s degree, packed into
  * one `Long`. Online peeling sends `(target, 1)` per edge; Offline peeling
  * sends one histogram-combined `(target, count)` per target.
  */
object DecMsg {
  @inline def pack(target: Int, count: Int): Long = (target.toLong << 32) | (count & 0xffffffffL)
  @inline def target(m: Long): Int = (m >>> 32).toInt
  @inline def count(m: Long): Int = m.toInt
}

/** Broadcast input of one subround. `decs` (packed `DecMsg`s) and `hits` are
  * indexed by destination partition; each partition reads only its own inbox
  * but every partition applies `peeledDelta`. `sampled` (ascending) and
  * `sampledRate` are the sampler directory the owners reported last subround,
  * read by *senders* to decide dec-vs-hit (the shared-memory read of σ[u]).
  */
final case class SubroundIn(
    k: Int,
    roundStart: Boolean,
    subroundIndex: Int,
    decs: Array[Array[Long]],
    hits: Array[Array[Int]],
    peeledDelta: Array[Int],
    sampled: Array[Int],
    sampledRate: Array[Double]) extends Serializable

object SubroundIn {
  /** Subround 0 peels only degree-0 vertices, so its directory is empty. */
  def initial(nParts: Int): SubroundIn =
    SubroundIn(0, roundStart = true, 0,
      Array.fill(nParts)(Array.emptyLongArray),
      Array.fill(nParts)(Array.emptyIntArray),
      Array.emptyIntArray, Array.emptyIntArray, Array.emptyDoubleArray)
}

/** Per-subround operation counters of one partition (feeds the cost model).
  *
  * `work` is the partition's total unit-operation count this subround — edge
  * traversals, message applications, structure operations, histogram
  * operations and frontier scans all included, so the per-subround max over
  * partitions is the subround's critical path (contention at a hot owner
  * shows up here because the owner applies its inbound messages serially).
  */
final case class SubCounters(
    work: Long,
    edgeTraversals: Long,
    decMsgs: Long,
    hitMsgs: Long,
    localDecs: Long,
    structOps: Long,
    histogramOps: Long,
    inboundApplied: Long,
    maxInboundPerVertex: Int,
    maxChainOps: Long, // ops of the longest single local search (a serial chain)
    frontierProcessed: Int) extends Serializable {

  /** Sums the sums and takes the max of the maxima. */
  def combine(o: SubCounters): SubCounters = SubCounters(
    work + o.work, edgeTraversals + o.edgeTraversals, decMsgs + o.decMsgs,
    hitMsgs + o.hitMsgs, localDecs + o.localDecs, structOps + o.structOps,
    histogramOps + o.histogramOps, inboundApplied + o.inboundApplied,
    math.max(maxInboundPerVertex, o.maxInboundPerVertex),
    math.max(maxChainOps, o.maxChainOps), frontierProcessed + o.frontierProcessed)
}

object SubCounters {
  val zero: SubCounters = SubCounters(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0, 0L, 0)
}

/** Output of one partition for one subround. `sampled` (ascending, distinct)
  * and `sampledRate` are the owned vertices in sample mode and their rates.
  * `nextKey` is a lower bound on the next round in which the partition can
  * extract or exit a vertex; it is only computed (else k + 1) when the
  * partition has no frontier and no recount left, the only case in which the
  * driver reads it.
  */
final case class SubroundOut(
    pid: Int,
    outDecs: Array[Array[Long]],
    outHits: Array[Array[Int]],
    newlyPeeled: Array[Int],
    sampled: Array[Int],
    sampledRate: Array[Double],
    localFrontierSize: Int,
    pendingRecounts: Int,
    peeledOwnedTotal: Int,
    nextKey: Int,
    counters: SubCounters,
    error: Boolean) extends Serializable
