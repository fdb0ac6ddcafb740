package repro.sampling

import org.scalatest.funsuite.AnyFunSuite

class SamplerSpec extends AnyFunSuite {
  private val sp = SamplingParams()

  test("mu is Θ(log n)") {
    val mu1 = sp.mu(1000)
    val mu2 = sp.mu(1000000)
    assert(mu1 >= 8)
    assert(mu2 > mu1)
    assert(mu2 <= mu1 * 3) // log-ish growth, not polynomial
  }

  test("mu matches 4(c+2)ln n") {
    assert(sp.mu(10000) == math.ceil(4 * 3.0 * math.log(10000)).toInt)
  }

  test("canSample requires degree above threshold") {
    assert(!sp.canSample(512, 0))
    assert(sp.canSample(513, 0))
  }

  test("canSample requires r*d > k") {
    assert(sp.canSample(1000, 99))   // 100 > 99
    assert(!sp.canSample(1000, 100)) // 100 > 100 fails
  }

  test("rate is mu/((1-r)d), clamped to 1") {
    val n = 100000
    val d = 10000
    assert(math.abs(sp.rateFor(d, n) - sp.mu(n) / (0.9 * d)) < 1e-12)
    assert(sp.rateFor(1, n) == 1.0)
  }

  test("expected hits at the resample point is mu") {
    // After (1-r)*d neighbors are removed, hits ≈ rate * (1-r) * d = mu.
    val n = 100000; val d = 20000
    val expectedHits = sp.rateFor(d, n) * (1 - sp.r) * d
    assert(math.abs(expectedHits - sp.mu(n)) < 1e-6)
  }

  test("validate fails when k reaches r*d") {
    assert(!sp.validate(1000, 100, 0, 0.1))
    assert(sp.validate(1000, 99, 0, 0.1))
  }

  test("validate fails once a quarter of the expected hits accumulate") {
    val d = 10000; val k = 100
    val rate = sp.rateFor(d, 100000)
    val limit = rate * (d - k) / 4.0
    assert(sp.validate(d, k, (limit - 1).toInt, rate))
    assert(!sp.validate(d, k, (limit + 1).toInt, rate))
  }

  test("firstInvalidRound: validate holds below it and fails from it on") {
    val rng = new java.util.Random(11)
    val fixed = Seq((1000, 0, 1.0), (1000, 0, 0.1), (600, 5, 1.0), (513, 0, 0.05), (0, 0, 0.5), (40, 9, 1.0))
    val random = (0 until 400).map { _ =>
      val d = rng.nextInt(20000)
      val cnt = if (rng.nextBoolean()) 0 else rng.nextInt(300)
      val rate = if (rng.nextInt(4) == 0) 1.0 else 1e-4 + rng.nextDouble() * (1 - 1e-4)
      (d, cnt, rate)
    }
    for ((d, cnt, rate) <- fixed ++ random) {
      val first = sp.firstInvalidRound(d, cnt, rate)
      (0 until first).foreach { k =>
        assert(sp.validate(d, k, cnt, rate), s"(d=$d, cnt=$cnt, rate=$rate) invalid at $k < $first")
      }
      (first to first + 20).foreach { k =>
        assert(!sp.validate(d, k, cnt, rate), s"(d=$d, cnt=$cnt, rate=$rate) valid at $k >= $first")
      }
    }
  }

  test("Chernoff simulation: degree estimate never misses a peel (Lem 4.1 regime)") {
    // Simulate t coin tosses at rate p with tp >= mu: the count must reach
    // tp/4 in (almost) every trial — mirrors the whp bound.
    val rng = new java.util.Random(123)
    val n = 50000
    val d = 5000
    val p = sp.rateFor(d, n)
    val t = d - (sp.r * d).toInt // tosses until validate's first condition trips
    var failures = 0
    (0 until 200).foreach { _ =>
      var s = 0
      (0 until t).foreach(_ => if (rng.nextDouble() < p) s += 1)
      if (s < t * p / 4) failures += 1
    }
    assert(failures == 0, s"$failures of 200 trials fell below tp/4")
  }

  test("validate catches a silently-drained vertex with high probability") {
    // If the true degree dropped to k, ~rate*(d-k) hits were taken, which is
    // ≈ 4x the validate limit — validation must fail.
    val rng = new java.util.Random(7)
    val n = 50000; val d = 2000; val k = 150
    val p = sp.rateFor(d, n)
    (0 until 100).foreach { _ =>
      var hits = 0
      (0 until (d - k)).foreach(_ => if (rng.nextDouble() < p) hits += 1)
      assert(!sp.validate(d, k, hits, p), s"validate passed with $hits hits")
    }
  }

  test("small graphs never sample under default threshold") {
    (1 to 500).foreach(d => assert(!sp.canSample(d, 0)))
  }

  test("custom params shift the threshold") {
    val loose = SamplingParams(threshold = 32)
    assert(loose.canSample(100, 0))
    assert(!loose.canSample(100, 11)) // r*d = 10 <= k
  }
}
