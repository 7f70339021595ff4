package repro.ekg

import repro.core.Cmdl
import repro.discover.{DocToTable, UnionDiscovery}
import repro.text.Tokenizer

/** The SRQL discovery interface (§5.2) with CMDL's extensions: document DEs,
  * cross-modal search, and DRS result sets. Mirrors the five-step pipeline
  * of Fig. 1 / §5.2's example queries. Every table-level answer ranks tables
  * as `DocToTable.rankTables` does over column (or table) scores, and every
  * answer is written to the EKG as it is returned. `joint` is a model that
  * `cmdl` trained.
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

  /** Q1-style keyword search. Mode "Text" searches documents by BM25; mode
    * "Table" ranks tables by their best BM25 column hit.
    */
  def contentSearch(value: String, mode: String, topn: Int = 10): Drs = {
    val terms = Tokenizer.bagOfWords(value)
    val hits = mode match {
      case "Text" => cmdl.bm25Docs.query(terms, topn)
      case "Table" =>
        val index = cmdl.lfs.bm25Content
        DocToTable.rankTables(index.query(terms, index.size).iterator.map { case (ref, s) =>
          (cmdl.colByRef(ref).table, s)
        }, topn)
      case other =>
        throw new IllegalArgumentException(s"unknown content_search mode '$other'; expected Text or Table")
    }
    record(s"kw:$value", "keyword", hits, s"content_search($value, $mode)")
  }

  /** Q2/Q3-style cross-modal search: tables related to a document (by id),
    * ranked in the joint space when a joint model is available, otherwise by
    * solo embeddings, through a table scan built once per space that answers
    * as `DocToTable.embeddingRank`. A column without a joint embedding scores 0.
    */
  def crossModalSearch(docId: String, topn: Int): Drs = {
    val doc = cmdl.docById.getOrElse(docId,
      throw new IllegalArgumentException(s"unknown document $docId"))
    val tables = joint match {
      case Some(j) => j.tables.top(j.docEmb(docId), topn)
      case None    => cmdl.soloTables.top(doc.contentEmb, topn)
    }
    record(docId, "crossmodal", tables, s"crossModal_search($docId)")
  }

  /** Q4-style joinability: tables ranked by their best containment-ranked
    * join with any column of `table`.
    */
  def pkfk(table: String, topn: Int): Drs = {
    val joins = cmdl.colProfiles.iterator.filter(_.table == table)
      .flatMap(c => cmdl.syntacticIndex.topK(c, Int.MaxValue))
    record(table, "pkfk", DocToTable.rankTables(joins.map { case (ref, s) => (ref.table, s) }, topn), s"pkfk($table)")
  }

  /** Q5-style unionability: top unionable tables under the ensemble measure. */
  def unionable(table: String, topn: Int): Drs =
    record(table, "unionable", cmdl.unionIndex.topK(table, topn, UnionDiscovery.ensembleScore), s"Unionable($table)")

  /** Writes each answer to the EKG as a `relType` edge from `src`, then wraps the answers in a DRS. */
  private def record(src: String, relType: String, items: Seq[(String, Double)], provenance: String): Drs = {
    items.foreach { case (dst, s) => ekg.add(src, dst, relType, s) }
    Drs(items, provenance)
  }
}
