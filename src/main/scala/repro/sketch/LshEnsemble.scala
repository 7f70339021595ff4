package repro.sketch

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** LSH-Ensemble-style containment index [69] (§3).
  *
  * Indexed sets are partitioned by cardinality (equi-depth on log-cardinality,
  * as the original partitions by domain size) and each partition holds a
  * banded minhash LSH table. A probe hashes the query signature's bands in
  * each partition, collects candidates colliding on at least one band, ranks
  * them by the MinHash containment estimate (query → candidate), and returns
  * the top-k. Threshold probes (`queryThreshold`) keep every candidate whose
  * estimate clears the threshold — the paper notes this threshold-based
  * behaviour is why LSHEnsemble alone ranks poorly (§6.1).
  *
  * Each band of a partition is one sorted `Array[Long]` of
  * `bandHash << 32 | localIdx` keys, so a bucket is the run of keys sharing
  * the high half and a probe finds it by binary search. Every entry must
  * carry a signature of the same length, with `1 <= bands <= numHashes`;
  * probes must use that length too.
  */
final class LshEnsemble(
    entries: Seq[LshEnsemble.Entry],
    numPartitions: Int = 4,
    // One row per band by default: a containment probe from a small query into
    // a large domain has a tiny Jaccard, so multi-row bands would never
    // collide — the original index tunes (b, r) per partition down to r≈1 for
    // exactly this case; we bake that operating point in.
    bands: Int = MinHash.DefaultNumHashes,
) {
  import LshEnsemble._

  private val numHashes = entries.headOption.map(_.sig.length).getOrElse(MinHash.DefaultNumHashes)
  require(entries.forall(_.sig.length == numHashes), {
    val e = entries.find(_.sig.length != numHashes).get
    s"entry '${e.id}' has a ${e.sig.length}-row signature but '${entries.head.id}' has $numHashes rows; " +
      "all signatures must have the same length"
  })
  require(1 <= bands && bands <= numHashes,
    s"bands must be in 1..numHashes = 1..$numHashes, got $bands (a band past the signature's end " +
      "hashes an empty row range, so every entry would collide)")
  private val rowsPerBand = numHashes / bands

  // Equi-depth partitions over cardinality-sorted entries.
  private val partitions: IndexedSeq[Partition] = {
    val sorted = entries.sortBy(_.card).toIndexedSeq
    if (sorted.isEmpty) IndexedSeq.empty
    else {
      val per = math.max(1, math.ceil(sorted.size.toDouble / numPartitions).toInt)
      sorted.grouped(per).map { group =>
        val table = Array.tabulate(bands) { b =>
          val keys = Array.tabulate(group.size)(i => key(bandHash(group(i).sig, b), i))
          java.util.Arrays.sort(keys)
          keys
        }
        Partition(group, table)
      }.toIndexedSeq
    }
  }

  private def bandHash(sig: Array[Long], band: Int): Int = {
    val from = band * rowsPerBand
    val until = from + rowsPerBand
    var h = MurmurHash3.symmetricSeed + band
    var i = from
    while (i < until) { h = MurmurHash3.mix(h, (sig(i) ^ (sig(i) >>> 32)).toInt); i += 1 }
    MurmurHash3.finalizeHash(h, until - from)
  }

  /** Entries colliding with `sig` on at least one band, each once. */
  private def candidates(sig: Array[Long]): Iterator[Entry] = {
    require(entries.isEmpty || sig.length == numHashes,
      s"probe signature has ${sig.length} rows, the index's have $numHashes")
    if (partitions.isEmpty) return Iterator.empty
    val hashes = Array.tabulate(bands)(bandHash(sig, _))
    partitions.iterator.flatMap { p =>
      val hit = new Array[Boolean](p.entries.size)
      val out = mutable.ArrayBuffer.empty[Entry]
      var b = 0
      while (b < bands) {
        val keys = p.table(b)
        var j = firstAtLeast(keys, key(hashes(b), 0))
        while (j < keys.length && (keys(j) >> 32).toInt == hashes(b)) {
          val i = keys(j).toInt
          if (!hit(i)) { hit(i) = true; out += p.entries(i) }
          j += 1
        }
        b += 1
      }
      out
    }
  }

  /** Top-k entries by estimated containment of the query set in the entry. */
  def query(sig: Array[Long], card: Long, k: Int): Seq[(String, Double)] =
    candidates(sig)
      .map(e => (e.id, MinHash.estContainment(sig, card, e.sig, e.card)))
      .toSeq
      .sortBy { case (id, s) => (-s, id) }
      .take(k)

  /** All entries whose estimated containment clears `threshold` (unranked
    * semantics of the original index; returned sorted only for determinism).
    */
  def queryThreshold(sig: Array[Long], card: Long, threshold: Double): Seq[(String, Double)] =
    candidates(sig)
      .map(e => (e.id, MinHash.estContainment(sig, card, e.sig, e.card)))
      .filter(_._2 >= threshold)
      .toSeq
      .sortBy { case (id, s) => (-s, id) }

  def size: Int = entries.size
}

object LshEnsemble {
  /** An indexed set: stable id, minhash signature, exact cardinality. */
  final case class Entry(id: String, sig: Array[Long], card: Long)

  /** `table(b)` holds band b's keys, sorted. */
  private final case class Partition(entries: IndexedSeq[Entry], table: Array[Array[Long]])

  private def key(bandHash: Int, localIdx: Int): Long = (bandHash.toLong << 32) | localIdx

  /** Index of the first key >= `k` in the sorted `keys`. */
  private def firstAtLeast(keys: Array[Long], k: Long): Int = {
    var lo = 0; var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keys(mid) < k) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Index over raw value sets, one band per signature row. */
  def build(sets: Seq[(String, Set[String])], numHashes: Int = MinHash.DefaultNumHashes): LshEnsemble =
    new LshEnsemble(sets.map { case (id, s) => Entry(id, MinHash.signature(s, numHashes), s.size) },
      bands = numHashes)
}
