package repro.discover

import scala.collection.mutable

import repro.embed.WordVectors
import repro.profile.{ColumnProfile, Tags}

/** Cross-modal Doc→Table discovery (§6.1), and the table ranker behind every
  * table-level answer of CMDL.
  *
  * A table is as related as its most related column (the Doc-to-Table
  * relationship of §2.1), so each method scores columns and `rankTables`
  * max-pools the scores to tables. The CMDL variants differ only in the
  * embedding space (solo vs joint); a baseline is `rank` with its own column
  * score (MinHash containment) or `rankTables` over an index's column hits
  * (BM25, LM-Dirichlet).
  */
object DocToTable {

  /** Each table's best score, ranked by (-score, table), the top k. */
  def rankTables(scores: IterableOnce[(String, Double)], k: Int): Seq[(String, Double)] = {
    val best = mutable.HashMap.empty[String, Double]
    scores.iterator.foreach { case (t, s) =>
      if (best.get(t).forall(java.lang.Double.compare(s, _) > 0)) best(t) = s
    }
    best.toSeq.sortBy { case (t, s) => (-s, t) }.take(k)
  }

  /** Tables ranked by their text-searchable columns' `score`. */
  def rank(cols: Seq[ColumnProfile], score: ColumnProfile => Double, k: Int): Seq[(String, Double)] =
    rankTables(cols.iterator.filter(_.hasTag(Tags.TextSearch)).map(c => (c.table, score(c))), k)

  /** Embedding-based ranking (CMDL solo or joint): cosine of the document's
    * embedding against every text-searchable column's embedding, floored at 0.
    */
  def embeddingRank(
      docEmb: Array[Float],
      cols: Seq[ColumnProfile],
      colEmb: ColumnProfile => Array[Float],
      k: Int,
  ): Seq[(String, Double)] =
    rank(cols, c => math.max(0.0, WordVectors.cosine(docEmb, colEmb(c))), k)
}
