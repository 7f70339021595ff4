package repro.profile

import repro.text.Tokenizer

/** Raw inputs to and sketch outputs of the CMDL profiler (§3).
  *
  * `RawColumn` / `RawDoc` are the raw rows of the lake (one type per
  * modality); the profiler maps them to `ColumnProfile` / `DocProfile`, each
  * carrying every sketch the downstream indexes and discovery algorithms
  * need — signatures, solo embeddings, numeric statistics, format features
  * and the task tags of the column-tagging heuristics.
  */
final case class RawColumn(
    collection: String,
    table: String,
    column: String,
    dtype: String, // "text" | "id" | "categorical" | "numeric" | "date"
    values: Seq[String],
) {
  /** The values every profile and ground truth counts: trimmed, lowercased, blanks dropped. */
  def normValues: Seq[String] = values.map(_.trim.toLowerCase).filter(_.nonEmpty)
}

final case class RawDoc(
    collection: String,
    id: String,
    title: String,
    text: String,
) {
  /** The bag of words of the title and text, before the corpus-level doc-frequency filter. */
  def bagOfWords: Seq[String] = Tokenizer.bagOfWords(title + " " + text)
}

/** Column-level sketches. `sig` is the minwise signature over the distinct
  * lowercased values; `contentEmb` / `metaEmb` are the 100-d solo embeddings
  * of the content and of the table/column name metadata; `formatFeats` are
  * the D3L-style format features (mean length, digit/alpha fractions);
  * numeric min/max are NaN for non-numeric columns.
  */
final case class ColumnProfile(
    collection: String,
    table: String,
    column: String,
    dtype: String,
    rows: Long,
    card: Long,
    uniqueness: Double,
    bag: Seq[String], // distinct value tokens — the content sketch the elastic index consumes
    sig: Array[Long],
    contentEmb: Array[Float],
    metaEmb: Array[Float],
    formatFeats: Array[Double],
    numMin: Double,
    numMax: Double,
    tags: Seq[String],
) {
  val ref: String = ColumnProfile.ref(table, column)
  def isNumeric: Boolean = dtype == "numeric"
  def hasTag(t: String): Boolean = tags.contains(t)
}

object ColumnProfile {
  /** The `table.column` reference of a column: profiles, ground truths and discovery results all name a column so. */
  def ref(table: String, column: String): String = s"$table.$column"
}

/** Document-level sketches over the NLP-pipeline bag of words. */
final case class DocProfile(
    collection: String,
    id: String,
    title: String,
    bag: Seq[String],
    card: Long,
    sig: Array[Long],
    contentEmb: Array[Float],
    metaEmb: Array[Float],
)

object Tags {
  /** Participates in keyword / doc-column discovery (§3 tagging). */
  val TextSearch = "textsearch"

  /** Candidate for joinability / PK-FK discovery (§3 tagging). */
  val Joinable = "joinable"
}
