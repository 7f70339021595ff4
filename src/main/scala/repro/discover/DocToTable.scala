package repro.discover

import scala.collection.mutable

import repro.embed.EmbeddingMatrix
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
    TableScan(cols.filter(_.hasTag(Tags.TextSearch)), colEmb).top(docEmb, k)

  /** `embeddingRank` over a fixed set of columns, built once: row `i` of
    * `vectors` is a column of table `tableOfRow(i)`.
    *
    * Tables are numbered in sorted-name order. A query scores every row with
    * the cosine kernel, keeps each table's best score in a primitive array
    * (the first of equal scores wins, as in `rankTables`) and takes the
    * bounded top k by (-score, table), so it answers as
    * `rankTables(rows.map(r => (table(r), max(0, cosine(q, r)))), k)`.
    */
  final class TableScan(vectors: EmbeddingMatrix, tableOfRow: Seq[String]) {
    require(tableOfRow.size == vectors.size, s"${tableOfRow.size} tables for ${vectors.size} rows")
    private val tables: Array[String] = tableOfRow.distinct.sorted.toArray
    private val tableOf: Array[Int] = {
      val index = tables.zipWithIndex.toMap
      tableOfRow.iterator.map(index).toArray
    }
    private val rows = Array.range(0, vectors.size)
    private val tableKeys = Array.range(0, tables.length)

    def top(q: Array[Float], k: Int): Seq[(String, Double)] = {
      val cos = new Array[Double](rows.length)
      vectors.cosines(q, rows, rows.length, cos)
      // every score is >= 0 or NaN, so the first one of each table replaces -inf
      val best = Array.fill(tables.length)(Double.NegativeInfinity)
      var r = 0
      while (r < cos.length) {
        val s = math.max(0.0, cos(r))
        if (java.lang.Double.compare(s, best(tableOf(r))) > 0) best(tableOf(r)) = s
        r += 1
      }
      EmbeddingMatrix.topK(best, tableKeys, tables.length, k).toSeq.map(t => (tables(t), best(t)))
    }
  }

  object TableScan {
    /** The scan over `cols`' embeddings `colEmb`, in order. */
    def apply(cols: Seq[ColumnProfile], colEmb: ColumnProfile => Array[Float]): TableScan =
      new TableScan(new EmbeddingMatrix(cols.iterator.map(colEmb).toIndexedSeq), cols.map(_.table))
  }
}
