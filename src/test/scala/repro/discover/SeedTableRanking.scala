package repro.discover

import repro.core.Cmdl
import repro.embed.WordVectors
import repro.lake.ColRef
import repro.profile.{ColumnProfile, DocProfile, Tags}
import repro.sketch.MinHash
import repro.text.{Bm25Index, Tokenizer}

/** The seed's table rankers and SRQL table paths, kept as a test oracle, each
  * written out in full: `aggregateToTables` over `ColRef`s, the embedding,
  * containment and keyword Doc→Table rankers (the keyword one over-fetches
  * `k * 8` index hits), SRQL's Table-mode content search over `topn * 6`
  * BM25 column hits, its `pkfk` over `topn * 3` joins per column, and
  * `UnionIndex.topK` with its own sort. The one table ranker must answer as
  * these do.
  */
object SeedTableRanking {

  def aggregateToTables(colScores: Seq[(ColRef, Double)], k: Int): Seq[(String, Double)] =
    colScores
      .groupBy(_._1.table)
      .view.mapValues(_.map(_._2).max)
      .toSeq
      .sortBy { case (t, s) => (-s, t) }
      .take(k)

  def embeddingRank(docEmb: Array[Float], cols: Seq[ColumnProfile],
      colEmb: ColumnProfile => Array[Float], k: Int): Seq[(String, Double)] =
    aggregateToTables(cols
      .filter(_.hasTag(Tags.TextSearch))
      .map(c => (ColRef(c.table, c.column), math.max(0.0, WordVectors.cosine(docEmb, colEmb(c))))), k)

  def containmentRank(doc: DocProfile, cols: Seq[ColumnProfile], k: Int): Seq[(String, Double)] =
    aggregateToTables(cols
      .filter(_.hasTag(Tags.TextSearch))
      .map(c => (ColRef(c.table, c.column), MinHash.estContainment(doc.sig, doc.card, c.sig, c.card))), k)

  def keywordRank(doc: DocProfile, index: Bm25Index, colOf: String => ColRef,
      k: Int, lmDirichlet: Boolean): Seq[(String, Double)] = {
    val hits =
      if (lmDirichlet) index.queryLmDirichlet(doc.bag, k * 8)
      else index.query(doc.bag, k * 8)
    aggregateToTables(hits.map { case (id, s) => (colOf(id), s) }, k)
  }

  def contentSearch(cmdl: Cmdl, value: String, topn: Int): Seq[(String, Double)] = {
    val colHits = cmdl.lfs.bm25Content.query(Tokenizer.bagOfWords(value), topn * 6)
    aggregateToTables(colHits.map { case (ref, s) =>
      val c = cmdl.colByRef(ref)
      (ColRef(c.table, c.column), s)
    }, topn)
  }

  def pkfk(cmdl: Cmdl, table: String, topn: Int): Seq[(String, Double)] = {
    val cols = cmdl.colProfiles.filter(_.table == table)
    aggregateToTables(cols.flatMap(c => cmdl.syntacticIndex.topK(c, topn * 3)), topn)
  }

  def unionable(profiles: Seq[ColumnProfile], queryTable: String, k: Int): Seq[(String, Double)] = {
    val byTable = profiles.groupBy(_.table)
    val qCols = byTable.getOrElse(queryTable, Seq.empty)
    if (qCols.isEmpty) return Seq.empty
    byTable.iterator
      .filter(_._1 != queryTable)
      .map { case (t, cols) => (t, UnionDiscovery.tableScore(qCols, cols, UnionDiscovery.ensembleScore)) }
      .filter(_._2 > 0)
      .toSeq
      .sortBy { case (t, s) => (-s, t) }
      .take(k)
  }
}
