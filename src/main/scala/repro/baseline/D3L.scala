package repro.baseline

import repro.discover.{JoinDiscovery, UnionDiscovery}
import repro.lake.ColRef
import repro.profile.{ColumnProfile, Tags}
import repro.sketch.{MinHash, Similarity}

/** The D3L [15] baseline, re-implemented from its published design.
  *
  * D3L builds hash-based signatures over multiple fine-grained signals —
  * column *name* (q-grams), *value* overlap (minhash Jaccard), *format*
  * (character-shape features) and *numeric distribution* — and combines the
  * per-signal distances at query time with a weighted Euclidean sum. Its
  * value signal is still Jaccard *similarity*, so it inherits Aurum's
  * weakness under cardinality skew (Table 3); its extra name signal is what
  * lifts it above Aurum on DrugBank (2B), where joinable columns share names.
  */
object D3L {

  /** Per-signal similarities in [0,1] for a column pair. */
  final case class Signals(name: Double, value: Double, format: Double, numeric: Double)

  def signals(a: ColumnProfile, b: ColumnProfile): Signals = Signals(
    name = Similarity.nameSimilarity(a.column, b.column),
    value = MinHash.estJaccard(a.sig, b.sig),
    format = formatSimilarity(a, b),
    numeric = UnionDiscovery.numericScore(a, b),
  )

  /** Format similarity from the profiler's shape features (len, digit%, alpha%). */
  def formatSimilarity(a: ColumnProfile, b: ColumnProfile): Double = {
    val fa = a.formatFeats; val fb = b.formatFeats
    if (fa.isEmpty || fb.isEmpty) return 0.0
    val lenSim = 1.0 - math.min(1.0, math.abs(fa(0) - fb(0)) / math.max(math.max(fa(0), fb(0)), 1.0))
    val digSim = 1.0 - math.abs(fa(1) - fb(1))
    val alpSim = 1.0 - math.abs(fa(2) - fb(2))
    (lenSim + digSim + alpSim) / 3.0
  }

  /** Join weights of the name, value and format signals; the numeric signal
    * only gates which pairs `joinScore` combines.
    */
  private val Weights = Seq(0.3, 0.5, 0.2)
  private val WeightSum = Weights.sum

  /** Weighted-Euclidean combination of the name, value and format distances,
    * returned as a similarity (1 - distance).
    */
  def combine(s: Signals): Double = {
    val dists = Seq(1.0 - s.name, 1.0 - s.value, 1.0 - s.format)
    1.0 - math.sqrt(Weights.zip(dists).map { case (w, d) => (w / WeightSum) * d * d }.sum)
  }

  /** Syntactic-join ranking by the combined signal similarity. */
  final class SyntacticIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq

    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      JoinDiscovery.rank(query, joinable.iterator, joinScore, k)
  }

  /** Join score: the combined similarity of a pair sharing values or numeric range, else 0. */
  private def joinScore(a: ColumnProfile, b: ColumnProfile): Double = {
    val s = signals(a, b)
    if (s.value > 0 || s.numeric > 0) combine(s) else 0.0
  }
}
