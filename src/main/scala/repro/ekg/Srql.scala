package repro.ekg

import repro.core.Cmdl
import repro.discover.{DocToTable, UnionDiscovery}
import repro.lake.ColRef
import repro.text.Tokenizer

/** The SRQL discovery interface (§5.2) with CMDL's extensions: document DEs,
  * cross-modal search, and DRS result sets. Mirrors the five-step pipeline
  * of Fig. 1 / §5.2's example queries.
  */
final class Srql(cmdl: Cmdl, joint: Option[Cmdl#Joint] = None) {

  /** Discovery Result Set: a ranked list of DE names with scores and the
    * provenance of the discovery primitive that produced it.
    */
  final case class Drs(items: Seq[(String, Double)], provenance: String) {
    /** 1-based element access, as in the paper's `r1.[1]` syntax. */
    def apply(i: Int): String = items(i - 1)._1
    def names: Seq[String] = items.map(_._1)
    def size: Int = items.size
  }

  /** The EKG materialized lazily as queries run (relationships discovered by
    * the primitives are recorded as typed edges).
    */
  val ekg = new Ekg

  /** Q1-style keyword search. Mode "Text" searches documents; mode "Table"
    * searches tabular columns and returns table DEs.
    */
  def contentSearch(value: String, mode: String, topn: Int = 10): Drs = {
    val terms = Tokenizer.bagOfWords(value)
    mode match {
      case "Text" =>
        val hits = cmdl.bm25Docs.query(terms, topn)
        hits.foreach { case (d, s) => ekg.add(s"kw:$value", d, "keyword", s) }
        Drs(hits, s"content_search($value, Text)")
      case _ =>
        val colHits = cmdl.lfs.bm25Content.query(terms, topn * 6)
        val tables = DocToTable.aggregateToTables(colHits.map { case (ref, s) =>
          val c = cmdl.colByRef(ref)
          (ColRef(c.table, c.column), s)
        }, topn)
        tables.foreach { case (t, s) => ekg.add(s"kw:$value", t, "keyword", s) }
        Drs(tables, s"content_search($value, Table)")
    }
  }

  /** Q2/Q3-style cross-modal search: tables related to a document (by id),
    * ranked in the joint space when a joint model is available, otherwise by
    * solo embeddings. A column without a joint embedding scores 0.
    */
  def crossModalSearch(docId: String, topn: Int): Drs = {
    val doc = cmdl.docById.getOrElse(docId,
      throw new IllegalArgumentException(s"unknown document $docId"))
    val tables = joint match {
      case Some(j) =>
        DocToTable.embeddingRank(j.docEmb(docId), cmdl.lfs.textCols,
          c => j.colEmb.getOrElse(c.ref, new Array[Float](j.model.outDim)), topn)
      case None =>
        DocToTable.embeddingRank(doc.contentEmb, cmdl.lfs.textCols, _.contentEmb, topn)
    }
    tables.foreach { case (t, s) => ekg.add(docId, t, "crossmodal", s) }
    Drs(tables, s"crossModal_search($docId)")
  }

  /** Q4-style joinability: top joinable tables for a table, aggregated from
    * the containment-ranked column joins.
    */
  def pkfk(table: String, topn: Int): Drs = {
    val cols = cmdl.colProfiles.filter(_.table == table)
    val colHits = cols.flatMap(c => cmdl.syntacticIndex.topK(c, topn * 3))
    val tables = DocToTable.aggregateToTables(colHits, topn)
    tables.foreach { case (t, s) => ekg.add(table, t, "pkfk", s) }
    Drs(tables, s"pkfk($table)")
  }

  /** Q5-style unionability: top unionable tables under the ensemble measure. */
  def unionable(table: String, topn: Int): Drs = {
    val hits = cmdl.unionIndex.topK(table, topn, UnionDiscovery.ensembleScore)
    hits.foreach { case (t, s) => ekg.add(table, t, "unionable", s) }
    Drs(hits, s"Unionable($table)")
  }
}
