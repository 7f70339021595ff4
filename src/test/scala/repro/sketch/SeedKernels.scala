package repro.sketch

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** The seed's minwise signature, kept as a test oracle: two full
  * `MurmurHash3.stringHash` calls per (value, row). The lockstep
  * `MinHash.signature` must equal it bit for bit.
  */
object SeedMinHash {
  private def mix(seed: Int, value: String): Long = {
    var z = (MurmurHash3.stringHash(value, seed).toLong << 32) |
      (MurmurHash3.stringHash(value, seed ^ 0x5bd1e995) & 0xffffffffL)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def signature(values: Iterable[String], numHashes: Int = MinHash.DefaultNumHashes): Array[Long] = {
    val sig = Array.fill(numHashes)(Long.MaxValue)
    for (v <- values) {
      var i = 0
      while (i < numHashes) {
        val h = mix(i * 0x9e3779b9 + 1, v)
        if (h < sig(i)) sig(i) = h
        i += 1
      }
    }
    sig
  }
}

/** The seed's LSH Ensemble, kept as a test oracle: one hash map per
  * partition from (band, bucket) to the entries' local indexes. The
  * sorted-array `LshEnsemble` must answer every probe exactly as it does
  * with `sharedRowsOnly`, which drops the candidates whose bucket collides
  * with the probe's on every row where the two hold different values.
  */
final class SeedLshEnsemble(
    entries: Seq[LshEnsemble.Entry],
    numPartitions: Int = 4,
    bands: Int = MinHash.DefaultNumHashes,
    sharedRowsOnly: Boolean = false,
) {
  import LshEnsemble.Entry

  private val numHashes = entries.headOption.map(_.sig.length).getOrElse(MinHash.DefaultNumHashes)
  private val rowsPerBand = math.max(1, numHashes / bands)

  private val partitions: IndexedSeq[(IndexedSeq[Entry], Map[(Int, Int), Array[Int]])] = {
    val sorted = entries.sortBy(_.card).toIndexedSeq
    if (sorted.isEmpty) IndexedSeq.empty
    else {
      val per = math.max(1, math.ceil(sorted.size.toDouble / numPartitions).toInt)
      sorted.grouped(per).map { group =>
        val table = mutable.HashMap.empty[(Int, Int), mutable.ArrayBuffer[Int]]
        for ((e, localIdx) <- group.zipWithIndex; b <- 0 until bands) {
          table.getOrElseUpdate((b, bandHash(e.sig, b)), mutable.ArrayBuffer.empty) += localIdx
        }
        (group, table.view.mapValues(_.toArray).toMap)
      }.toIndexedSeq
    }
  }

  private def bandHash(sig: Array[Long], band: Int): Int = {
    val from = band * rowsPerBand
    val until = math.min(sig.length, from + rowsPerBand)
    var h = MurmurHash3.symmetricSeed + band
    var i = from
    while (i < until) { h = MurmurHash3.mix(h, (sig(i) ^ (sig(i) >>> 32)).toInt); i += 1 }
    MurmurHash3.finalizeHash(h, until - from)
  }

  private def candidates(sig: Array[Long]): Iterator[Entry] =
    partitions.iterator.flatMap { case (group, table) =>
      val seen = mutable.BitSet.empty
      (0 until bands).iterator
        .flatMap(b => table.getOrElse((b, bandHash(sig, b)), Array.empty[Int]))
        .filter(seen.add)
        .map(group)
        .filter(e => !sharedRowsOnly || sig.indices.exists(r => e.sig(r) == sig(r)))
    }

  def query(sig: Array[Long], card: Long, k: Int): Seq[(String, Double)] =
    candidates(sig)
      .map(e => (e.id, MinHash.estContainment(sig, card, e.sig, e.card)))
      .toSeq
      .sortBy { case (id, s) => (-s, id) }
      .take(k)

  def queryThreshold(sig: Array[Long], card: Long, threshold: Double): Seq[(String, Double)] =
    candidates(sig)
      .map(e => (e.id, MinHash.estContainment(sig, card, e.sig, e.card)))
      .filter(_._2 >= threshold)
      .toSeq
      .sortBy { case (id, s) => (-s, id) }
}
