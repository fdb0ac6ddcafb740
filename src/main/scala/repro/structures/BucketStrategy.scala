package repro.structures

import scala.collection.mutable.ArrayBuilder

/** Round-start frontier-extraction strategies over one engine partition's
  * owned vertices (Alg. 1 line 5 / paper §5).
  *
  * - [[ScanAllStrategy]]    — ParK/PKC: rescan every owned vertex each round
  *                            (no active set ⇒ O(m + kmax·n) total work).
  * - [[OneBucketStrategy]]  — Alg. 1: scan + repack the active set each round
  *                            (work-efficient, b = 1).
  * - [[FixedBucketsStrategy]] — Julienne: rebuild b=16 buckets every b rounds,
  *                            DecreaseKey moves entries between them.
  * - [[HierarchicalStrategy]] — the paper's final design: OneBucket until the
  *                            θ-core is reached, then switch to [[Hbs]].
  *
  * `ops` counts structure operations (scans + inserts) for the cost model.
  *
  * After a round's extraction, `nextKey` tells the engine how far it may
  * advance k: every strategy with an active set reports the next non-empty
  * key it can see (Julienne's next-bucket), ScanAll steps one level.
  */
sealed trait BucketStrategy extends Serializable {
  def init(owned: Array[Int], degOf: Int => Int): Unit
  /** Hook on every induced-degree decrement of an owned vertex. */
  def onDecrease(v: Int, newKey: Int): Unit
  /** Frontier for round k: alive, selectable owned vertices with current
    * degree == k. `alive` (not yet assigned) controls active-set retention;
    * `selectable` (not in sample mode) additionally gates extraction, since
    * a sampled vertex's stored degree is only an estimate.
    */
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int]
  /** A lower bound on the smallest current key > k among alive owned
    * vertices (`Int.MaxValue` if there is none), called after round k's
    * `extract`. It is never above that key.
    */
  def nextKey(k: Int, degOf: Int => Int, alive: Int => Boolean): Int
  def ops: Long
  def deepCopy(): BucketStrategy
}

/** No active set: every round scans all owned vertices (ParK / PKC). */
final class ScanAllStrategy extends BucketStrategy {
  private var owned: Array[Int] = Array.emptyIntArray
  private var opsCount: Long = 0L

  def init(o: Array[Int], degOf: Int => Int): Unit = { owned = o }
  def onDecrease(v: Int, newKey: Int): Unit = ()
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    opsCount += owned.length
    val out = new ArrayBuilder.ofInt
    var i = 0
    while (i < owned.length) {
      val v = owned(i)
      if (alive(v) && selectable(v) && degOf(v) == k) out += v
      i += 1
    }
    out.result()
  }
  /** No active set to look ahead in: step one level, as ParK and PKC do. */
  def nextKey(k: Int, degOf: Int => Int, alive: Int => Boolean): Int = k + 1
  def ops: Long = opsCount
  def deepCopy(): BucketStrategy = {
    val c = new ScanAllStrategy
    c.owned = owned // immutable after init
    c.opsCount = opsCount
    c
  }
}

/** Active set as a compact array, repacked (PACKed) every round. */
final class OneBucketStrategy extends BucketStrategy {
  private[structures] var active: Array[Int] = Array.emptyIntArray
  private var opsCount: Long = 0L
  // Min key > lastK over the active set: found by the last extract's scan,
  // lowered by every later decrease that stays above lastK.
  private var lastK: Int = -1
  private var minAbove: Int = Int.MaxValue

  def init(o: Array[Int], degOf: Int => Int): Unit = { active = o.clone() }
  def onDecrease(v: Int, newKey: Int): Unit =
    if (newKey > lastK && newKey < minAbove) minAbove = newKey
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    opsCount += active.length
    val out = new ArrayBuilder.ofInt
    val keep = new ArrayBuilder.ofInt
    var min = Int.MaxValue
    var i = 0
    while (i < active.length) {
      val v = active(i)
      if (alive(v)) {
        val d = degOf(v)
        if (selectable(v) && d == k) out += v
        else {
          keep += v
          if (d > k && d < min) min = d
        }
      }
      i += 1
    }
    active = keep.result()
    lastK = k
    minAbove = min
    out.result()
  }
  def nextKey(k: Int, degOf: Int => Int, alive: Int => Boolean): Int =
    if (k == lastK) minAbove else k + 1
  def ops: Long = opsCount
  def deepCopy(): BucketStrategy = {
    val c = new OneBucketStrategy
    c.active = active.clone()
    c.opsCount = opsCount
    c.lastK = lastK
    c.minAbove = minAbove
    c
  }
}

/** Julienne's fixed-width bucketing: every `b` rounds, rebuild buckets
  * 0..b−1 (key = degree − k) plus an implicit overflow (the active array);
  * DecreaseKey inserts a copy into the target bucket when the new key falls
  * inside the current window. Stale copies are filtered on extraction.
  */
final class FixedBucketsStrategy(val b: Int) extends BucketStrategy {
  private var active: Array[Int] = Array.emptyIntArray
  private var buckets: Array[Array[Int]] = Array.fill(b)(Array.emptyIntArray)
  private var bucketSz: Array[Int] = new Array[Int](b)
  private var windowStart: Int = -1 // k of the last rebuild; -1 = not built
  private var opsCount: Long = 0L

  def init(o: Array[Int], degOf: Int => Int): Unit = { active = o.clone() }

  private def pushBucket(i: Int, v: Int): Unit = {
    if (bucketSz(i) == buckets(i).length)
      buckets(i) = java.util.Arrays.copyOf(buckets(i), math.max(8, buckets(i).length * 2))
    buckets(i)(bucketSz(i)) = v
    bucketSz(i) += 1
    opsCount += 1
  }

  def onDecrease(v: Int, newKey: Int): Unit = {
    if (windowStart >= 0) {
      val idx = newKey - windowStart
      if (idx >= 0 && idx < b) pushBucket(idx, v)
    }
  }

  private def rebuild(k: Int, degOf: Int => Int, alive: Int => Boolean): Unit = {
    windowStart = k
    java.util.Arrays.fill(bucketSz, 0)
    val keep = new ArrayBuilder.ofInt
    var i = 0
    while (i < active.length) {
      val v = active(i)
      opsCount += 1
      if (alive(v)) {
        keep += v
        val idx = degOf(v) - k
        if (idx >= 0 && idx < b) pushBucket(idx, v)
      }
      i += 1
    }
    active = keep.result()
  }

  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    if (windowStart < 0 || k >= windowStart + b) rebuild(k, degOf, alive)
    val idx = k - windowStart
    val out = new ArrayBuilder.ofInt
    val arr = buckets(idx); val sz = bucketSz(idx)
    bucketSz(idx) = 0
    var i = 0
    while (i < sz) {
      val v = arr(i)
      opsCount += 1
      if (alive(v) && selectable(v) && degOf(v) == k) out += v
      i += 1
    }
    Hbs.dedupSorted(out.result())
  }

  /** Julienne's next-bucket: the first window bucket above k holding a live
    * entry, else the window's end (keys past it sit in the overflow).
    */
  def nextKey(k: Int, degOf: Int => Int, alive: Int => Boolean): Int = {
    if (windowStart < 0) return k + 1
    var idx = math.max(0, k + 1 - windowStart)
    while (idx < b) {
      val key = windowStart + idx
      val arr = buckets(idx)
      var i = 0
      while (i < bucketSz(idx)) {
        val v = arr(i)
        opsCount += 1
        if (alive(v) && degOf(v) == key) return key
        i += 1
      }
      idx += 1
    }
    windowStart + b
  }

  def ops: Long = opsCount
  def deepCopy(): BucketStrategy = {
    val c = new FixedBucketsStrategy(b)
    c.active = active.clone()
    c.buckets = buckets.indices.map(i => java.util.Arrays.copyOf(buckets(i), buckets(i).length)).toArray
    c.bucketSz = bucketSz.clone()
    c.windowStart = windowStart
    c.opsCount = opsCount
    c
  }
}

/** The paper's final design (§5.3): one bucket while k < θ, then switch to
  * the hierarchical bucketing structure once the θ-core is reached.
  */
final class HierarchicalStrategy(val theta: Int, val maxKey: Int) extends BucketStrategy {
  private var one = new OneBucketStrategy
  private var hbs: Hbs = null
  private var switched = false

  def init(o: Array[Int], degOf: Int => Int): Unit = one.init(o, degOf)

  def onDecrease(v: Int, newKey: Int): Unit =
    if (switched) hbs.decreaseKey(v, newKey) else one.onDecrease(v, newKey)

  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    if (!switched && k >= theta) {
      // Build the HBS over the remaining active vertices.
      switched = true
      hbs = new Hbs(maxKey)
      val remaining = one.active
      var i = 0
      while (i < remaining.length) {
        val v = remaining(i)
        if (alive(v)) hbs.insert(v, degOf(v))
        i += 1
      }
      one = null
    }
    if (switched) hbs.extractForRound(k, degOf, v => alive(v) && selectable(v))
    else one.extract(k, degOf, alive, selectable)
  }

  def nextKey(k: Int, degOf: Int => Int, alive: Int => Boolean): Int =
    if (switched) hbs.nextKey(k, degOf, alive) else one.nextKey(k, degOf, alive)

  def ops: Long = (if (one != null) one.ops else 0L) + (if (hbs != null) hbs.opsCost else 0L)

  def deepCopy(): BucketStrategy = {
    val c = new HierarchicalStrategy(theta, maxKey)
    c.switched = switched
    c.one = if (one != null) one.deepCopy().asInstanceOf[OneBucketStrategy] else null
    c.hbs = if (hbs != null) hbs.deepCopy() else null
    c
  }
}
