package repro.lake

import repro.profile.{RawColumn, RawDoc}

/** A column reference `table.column` — the DE identity used by every
  * benchmark ground truth and discovery result.
  */
final case class ColRef(table: String, column: String) {
  def render: String = s"$table.$column"
}

/** One structured table of a lake, belonging to a named collection
  * (DrugBank, ChEMBL, Govt. data, SS/MS/LS, ...).
  */
final case class LakeTable(collection: String, name: String, columns: Vector[RawColumn])

/** Doc→Table benchmark (1A/1B/1C): a query is a document, the answer the set
  * of related tables; `docColumns` keeps the column-level links the table
  * answers aggregate from (and from which mQCR is computed).
  */
final case class DocBench(
    id: String,
    queries: Map[String, Set[String]],
    docColumns: Map[String, Set[ColRef]],
)

/** Syntactic-join benchmark (2A/2B/2C): per query column, the ground-truth
  * joinable columns in other tables.
  */
final case class JoinBench(id: String, workload: String, queries: Map[ColRef, Set[ColRef]])

/** PK-FK benchmark (2D): one query per database, the answer the full set of
  * (pk, fk) links.
  */
final case class PkfkBench(id: String, database: String, gt: Set[(ColRef, ColRef)])

/** Unionability benchmark (3A/3B): per query table, the ground-truth
  * unionable tables.
  */
final case class UnionBench(id: String, workload: String, queries: Map[String, Set[String]])

/** A data lake: structured tables + unstructured documents + the benchmark
  * ground truths that the generator derives while building the data (Table 2's
  * "Ground Truth Generation" column). The lake holds plain Scala
  * collections; the profiler maps `rawColumns` and `docs` as Spark RDDs.
  */
final case class Lake(
    name: String,
    tables: Vector[LakeTable],
    docs: Vector[RawDoc],
    docBenches: Seq[DocBench] = Seq.empty,
    joinBenches: Seq[JoinBench] = Seq.empty,
    pkfkBenches: Seq[PkfkBench] = Seq.empty,
    unionBenches: Seq[UnionBench] = Seq.empty,
) {
  def rawColumns: Seq[RawColumn] = tables.flatMap(_.columns)
}
