package repro.discover

import repro.embed.WordVectors
import repro.profile.ColumnProfile
import repro.sketch.{MinHash, Similarity}

/** CMDL unionable-table discovery (§5.1, §6.3, Table 5).
  *
  * For a column pair, four similarity measures are available — column *name*,
  * value *containment*, *numeric* range overlap and *semantic* (solo
  * embedding cosine). CMDL's *ensemble* combines the measures per column pair
  * first, then aligns the two tables with a maximal bipartite matching over
  * column pairs (TUS-style [49]) and scores the table pair by the normalized
  * matched weight. Single-measure variants drive Table 5's Relative Recall
  * analysis through the same matching.
  */
object UnionDiscovery {

  type ColumnScorer = (ColumnProfile, ColumnProfile) => Double

  def nameScore(a: ColumnProfile, b: ColumnProfile): Double =
    Similarity.nameSimilarity(a.column, b.column)

  def containmentScore(a: ColumnProfile, b: ColumnProfile): Double =
    MinHash.estMaxContainment(a.sig, a.card, b.sig, b.card)

  def numericScore(a: ColumnProfile, b: ColumnProfile): Double =
    if (a.isNumeric && b.isNumeric && !a.numMin.isNaN && !b.numMin.isNaN)
      Similarity.numericOverlap(a.numMin, a.numMax, b.numMin, b.numMax)
    else 0.0

  def semanticScore(a: ColumnProfile, b: ColumnProfile): Double =
    math.max(0.0, WordVectors.cosine(a.contentEmb, b.contentEmb))

  /** CMDL's ensemble: mean over the measures applicable to the pair — the
    * numeric measure only participates when both columns are numeric.
    */
  def ensembleScore(a: ColumnProfile, b: ColumnProfile): Double = {
    val base = Seq(nameScore(a, b), containmentScore(a, b), semanticScore(a, b))
    val all = if (a.isNumeric && b.isNumeric) base :+ numericScore(a, b) else base
    all.sum / all.size
  }

  /** Table 5's measures, in its row order. */
  val Measures: Seq[(String, ColumnScorer)] = Seq(
    ("name", nameScore), ("containment", containmentScore), ("numeric", numericScore),
    ("semantic", semanticScore), ("ensemble", ensembleScore))

  /** Greedy maximal-weight bipartite matching between two column sets;
    * returns the matched pairs with their scores.
    */
  def bipartiteMatch(left: Seq[ColumnProfile], right: Seq[ColumnProfile],
      score: ColumnScorer): Seq[(ColumnProfile, ColumnProfile, Double)] = {
    val pairs = for {
      a <- left; b <- right
      s = score(a, b) if s > 0
    } yield (a, b, s)
    val usedL = scala.collection.mutable.Set.empty[String]
    val usedR = scala.collection.mutable.Set.empty[String]
    pairs
      .sortBy { case (a, b, s) => (-s, a.ref, b.ref) }
      .filter { case (a, b, _) =>
        if (usedL.contains(a.ref) || usedR.contains(b.ref)) false
        else { usedL += a.ref; usedR += b.ref; true }
      }
  }

  /** Table-pair unionability: normalized matched weight of the alignment. */
  def tableScore(left: Seq[ColumnProfile], right: Seq[ColumnProfile], score: ColumnScorer): Double = {
    if (left.isEmpty || right.isEmpty) return 0.0
    val matched = bipartiteMatch(left, right, score)
    matched.map(_._3).sum / math.max(left.size, right.size)
  }

  /** Top-k unionable tables for a query table under a column scorer. */
  final class UnionIndex(profiles: Seq[ColumnProfile]) {
    private val byTable: Map[String, Seq[ColumnProfile]] = profiles.groupBy(_.table)

    def tables: Set[String] = byTable.keySet

    def topK(queryTable: String, k: Int, score: ColumnScorer): Seq[(String, Double)] = {
      val qCols = byTable.getOrElse(queryTable, Seq.empty)
      if (qCols.isEmpty) return Seq.empty
      DocToTable.rankTables(byTable.iterator
        .filter(_._1 != queryTable)
        .map { case (t, cols) => (t, tableScore(qCols, cols, score)) }
        .filter(_._2 > 0), k)
    }
  }
}
