package repro.sketch

/** Exact similarity measures used across CMDL and the baselines (§3, §5.1).
  *
  * These are the *ground-truth-grade* measures: the brute-force benchmark
  * generators (Table 2, "Brute force") and the unit tests use them, while the
  * online system uses their sketch-based approximations (MinHash /
  * LshEnsemble). Keeping both lets the tests quantify approximation error.
  */
object Similarity {

  /** Jaccard similarity |A∩B| / |A∪B| — the measure Aurum/D3L rank joins by. */
  def jaccard(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 0.0
    val inter = a.intersect(b).size.toDouble
    inter / (a.size + b.size - inter)
  }

  /** Jaccard set containment |A∩B| / |A| — asymmetric, from A into B; the
    * measure CMDL adopts because it is robust to skewed domain sizes [69].
    */
  def containment(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty) 0.0 else a.intersect(b).size.toDouble / a.size

  /** Character 3-grams of a string (padded), for name similarity. */
  def qgrams(s: String): Set[String] = ("##" + s.toLowerCase + "##").sliding(3).toSet

  /** Column/table name similarity: Jaccard over 3-grams of the lowercased
    * names — tolerant to underscores, prefixes and pluralisation.
    */
  def nameSimilarity(a: String, b: String): Double =
    jaccard(qgrams(a), qgrams(b))

  /** Numeric-range overlap similarity used for numeric columns by both Aurum
    * and CMDL (§3 "Other Profiled Information", §6.2 ChEBI): length of range
    * intersection over length of range union, 1.0 for identical point ranges.
    */
  def numericOverlap(minA: Double, maxA: Double, minB: Double, maxB: Double): Double = {
    val lo = math.max(minA, minB); val hi = math.min(maxA, maxB)
    if (hi < lo) return 0.0
    val union = math.max(maxA, maxB) - math.min(minA, minB)
    if (union <= 0.0) 1.0 else (hi - lo) / union
  }
}
