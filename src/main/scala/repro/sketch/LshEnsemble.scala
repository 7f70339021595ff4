package repro.sketch

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** LSH-Ensemble-style containment index [69] (§3), as one banded table.
  *
  * Each signature row is its own band (b = numHashes, r = 1): a containment
  * probe from a small query into a large domain has a tiny Jaccard, so
  * multi-row bands would rarely collide. A probe collects the entries that
  * share a value with the query on at least one row, ranks them by the MinHash
  * containment estimate (query → candidate) and returns the top-k. Threshold
  * probes (`queryThreshold`) keep every candidate whose estimate clears the
  * threshold — the paper notes this threshold-based behaviour is why
  * LSHEnsemble alone ranks poorly (§6.1).
  *
  * Ref [69] partitions the sets by cardinality only so that each partition
  * can pick its own (b, r). With r = 1 in every partition a set collides with
  * the query in its partition exactly when it does in one table over all
  * sets, so partitions would add no candidate and lose none; this index keeps
  * the one table. Per-partition (b, r) tuning is not implemented.
  *
  * Row r is one sorted `Array[Long]` of `rowHash << 32 | idx` keys, so a
  * bucket is the run of keys sharing the high half and a probe finds it by
  * binary search. A bucket entry counts only if it holds the probe's 64-bit
  * row value, so a collision of the 32-bit row hashes adds no candidate. Every entry must carry a signature of the same length, with
  * at least one row; probes must use that length too.
  */
final class LshEnsemble(entries: Seq[LshEnsemble.Entry]) {
  import LshEnsemble._

  private val indexed = entries.toIndexedSeq
  private val numHashes = indexed.headOption.map(_.sig.length).getOrElse(MinHash.DefaultNumHashes)
  require(indexed.forall(_.sig.length == numHashes), {
    val e = indexed.find(_.sig.length != numHashes).get
    s"entry '${e.id}' has a ${e.sig.length}-row signature but '${indexed.head.id}' has $numHashes rows; " +
      "all signatures must have the same length"
  })
  require(indexed.isEmpty || numHashes >= 1,
    s"entry '${indexed.head.id}' has an empty signature; the index needs at least one row")

  /** `table(r)` holds row r's keys, sorted. */
  private val table: Array[Array[Long]] =
    if (indexed.isEmpty) Array.empty
    else Array.tabulate(numHashes) { r =>
      val keys = Array.tabulate(indexed.size)(i => key(rowHash(indexed(i).sig, r), i))
      java.util.Arrays.sort(keys)
      keys
    }

  /** Entries sharing at least one row value with `sig`, each once. */
  def candidates(sig: Array[Long]): Iterator[Entry] = {
    require(indexed.isEmpty || sig.length == numHashes,
      s"probe signature has ${sig.length} rows, the index's have $numHashes")
    val hit = new Array[Boolean](indexed.size)
    val out = mutable.ArrayBuffer.empty[Entry]
    var r = 0
    while (r < table.length) {
      val keys = table(r)
      val h = rowHash(sig, r)
      var j = firstAtLeast(keys, key(h, 0))
      while (j < keys.length && (keys(j) >> 32).toInt == h) {
        val i = keys(j).toInt
        if (!hit(i) && indexed(i).sig(r) == sig(r)) { hit(i) = true; out += indexed(i) }
        j += 1
      }
      r += 1
    }
    out.iterator
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

  def size: Int = indexed.size
}

object LshEnsemble {
  /** An indexed set: stable id, minhash signature, exact cardinality. */
  final case class Entry(id: String, sig: Array[Long], card: Long)

  /** Bucket of signature row `r`: Murmur over the row's one value, seeded per row. */
  private def rowHash(sig: Array[Long], r: Int): Int =
    MurmurHash3.finalizeHash(MurmurHash3.mix(MurmurHash3.symmetricSeed + r, (sig(r) ^ (sig(r) >>> 32)).toInt), 1)

  private def key(rowHash: Int, idx: Int): Long = (rowHash.toLong << 32) | idx

  /** Index of the first key >= `k` in the sorted `keys`. */
  private def firstAtLeast(keys: Array[Long], k: Long): Int = {
    var lo = 0; var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keys(mid) < k) lo = mid + 1 else hi = mid
    }
    lo
  }
}
