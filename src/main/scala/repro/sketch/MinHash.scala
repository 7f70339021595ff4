package repro.sketch

import scala.util.hashing.MurmurHash3

/** Minwise hashing sketches (§3 "Syntactic Similarity via Jaccard Distances").
  *
  * Signatures are deterministic in the value set: hash i of a set is the
  * minimum over members of a 64-bit splitmix64 mix of two seeded 32-bit
  * MurmurHash3 string hashes (`stringHash(v, s_i)` in the high half,
  * `stringHash(v, s_i ^ 0x5bd1e995)` in the low half, `s_i = i·0x9e3779b9 + 1`).
  * All 2×k Murmur chains of a value run in lockstep: each two-char block is
  * scrambled once and folded into every chain, so a value costs one pass over
  * its chars instead of 2×k. The arithmetic per chain is exactly
  * `MurmurHash3.stringHash`'s, so the bits are the same.
  *
  * The Jaccard estimator is the classic matching-component fraction; the
  * containment estimator converts the Jaccard estimate using the exact
  * cardinalities that the profiler stores alongside each sketch (the Lazo
  * [34] / LSHEnsemble [69] estimation family).
  */
object MinHash {

  val DefaultNumHashes = 256

  /** Murmur's per-block scramble, done once per block for all chains. */
  private def scramble(data: Int): Int = MurmurHash3.mixLast(0, data)

  /** k-minwise signature of a value set. Empty sets get Long.MaxValue rows.
    * Chain `i` of the `2k` Murmur chains is row `i`'s high half, chain `k + i`
    * its low half. After a value's chars are folded in, one pass finalises
    * every chain (`finalizeHash`, `fmix32(h ^ length)`), and a second joins
    * each row's halves through splitmix64 and keeps the row's minimum.
    */
  def signature(values: Iterable[String], numHashes: Int = DefaultNumHashes): Array[Long] = {
    val sig = Array.fill(numHashes)(Long.MaxValue)
    val lanes = 2 * numHashes
    val seeds = Array.tabulate(lanes) { c =>
      val s = (c % numHashes) * 0x9e3779b9 + 1
      if (c < numHashes) s else s ^ 0x5bd1e995
    }
    val h = new Array[Int](lanes)
    for (v <- values) {
      System.arraycopy(seeds, 0, h, 0, lanes)
      var i = 0
      val n = v.length
      var c = 0
      while (c + 1 < n) {
        val k = scramble((v.charAt(c) << 16) + v.charAt(c + 1))
        i = 0
        while (i < lanes) {
          // MurmurHash3.mix with the scramble hoisted out of the lane loop
          h(i) = Integer.rotateLeft(h(i) ^ k, 13) * 5 + 0xe6546b64
          i += 1
        }
        c += 2
      }
      if (c < n) { // odd length: MurmurHash3.mixLast of the last char
        val k = scramble(v.charAt(c).toInt)
        i = 0
        while (i < lanes) { h(i) ^= k; i += 1 }
      }
      i = 0
      while (i < lanes) { h(i) = MurmurHash3.finalizeHash(h(i), n); i += 1 }
      i = 0
      while (i < numHashes) {
        // splitmix64 finaliser over the two 32-bit halves
        var z = (h(i).toLong << 32) | (h(numHashes + i) & 0xffffffffL)
        z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
        z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
        z ^= z >>> 31
        sig(i) = math.min(sig(i), z)
        i += 1
      }
    }
    sig
  }

  /** Estimated Jaccard similarity: fraction of matching signature rows. */
  def estJaccard(a: Array[Long], b: Array[Long]): Double = {
    require(a.length == b.length, "signature lengths differ")
    if (a.isEmpty) return 0.0
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i) && a(i) != Long.MaxValue) eq += 1; i += 1 }
    eq.toDouble / a.length
  }

  /** Estimated containment of A in B, from the Jaccard estimate and the exact
    * cardinalities: |A∩B| ≈ J/(1+J)·(|A|+|B|), containment ≈ |A∩B|/|A|.
    */
  def estContainment(sigA: Array[Long], cardA: Long, sigB: Array[Long], cardB: Long): Double = {
    if (cardA <= 0) return 0.0
    val j = estJaccard(sigA, sigB)
    val inter = j / (1.0 + j) * (cardA + cardB)
    math.min(1.0, inter / cardA)
  }

  /** The larger of the two directions' `estContainment`, from one Jaccard
    * estimate: the shared |A∩B| estimate over the smaller positive
    * cardinality (cardinalities are set sizes, so never negative). The
    * estimate and |A| + |B| are the same in both directions, and dividing by
    * the smaller divisor never gives the smaller quotient, so the result is
    * the two-call `max` bit for bit.
    */
  def estMaxContainment(sigA: Array[Long], cardA: Long, sigB: Array[Long], cardB: Long): Double = {
    val minCard = if (cardA <= 0) cardB else if (cardB <= 0) cardA else math.min(cardA, cardB)
    if (minCard <= 0) return 0.0
    val j = estJaccard(sigA, sigB)
    val inter = j / (1.0 + j) * (cardA + cardB)
    math.min(1.0, inter / minCard)
  }
}
