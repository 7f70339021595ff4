package repro.profile

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.embed.WordVectors
import repro.sketch.MinHash
import repro.text.Tokenizer

/** The CMDL profiler (§3): a distributed scan-and-sketch pipeline.
  *
  * Both modalities enter as DataFrames — `(collection, table, column, dtype,
  * values)` rows for tabular columns and `(collection, id, title, text)` rows
  * for documents — and every sketch (minwise signature, solo content/metadata
  * embeddings, numeric statistics, format features, task tags) is computed in
  * a distributed `Dataset.map`. The document path first runs the corpus-level
  * document-frequency filter as a DataFrame aggregation (explode → doc-freq →
  * anti-join of non-discriminative terms) before sketching, mirroring the
  * paper's Gensim pipeline.
  */
object Profiler {

  /** Columns with fewer distinct values than this fraction of the rows are
    * considered categorical-like and excluded from text search (§3 tagging).
    */
  val MinDistinctFracForTextSearch = 0.05

  /** Values longer than this mark a long-text column, excluded from PK-FK. */
  val MaxJoinableValueLength = 40

  /** Terms present in more than this fraction of documents are dropped. */
  val DefaultMaxDfFrac = 0.5

  def profileColumns(spark: SparkSession, cols: Seq[RawColumn]): Seq[ColumnProfile] = {
    import spark.implicits._
    if (cols.isEmpty) return Seq.empty
    spark.createDataset(cols).map(profileColumn).collect().toSeq
  }

  /** Single-column sketching — exposed for tests and driver-side use. */
  def profileColumn(raw: RawColumn): ColumnProfile = {
    val norm = raw.normValues
    val distinct = norm.distinct
    val rows = norm.size.toLong
    val card = distinct.size.toLong
    val nums = if (raw.dtype == "numeric") norm.flatMap(v => v.toDoubleOption) else Seq.empty
    val avgLen = if (distinct.isEmpty) 0.0 else distinct.map(_.length).sum.toDouble / distinct.size
    val chars = distinct.flatMap(_.toSeq)
    val fracDigit = if (chars.isEmpty) 0.0 else chars.count(_.isDigit).toDouble / chars.size
    val fracAlpha = if (chars.isEmpty) 0.0 else chars.count(_.isLetter).toDouble / chars.size

    val textSearch = (raw.dtype == "text" || raw.dtype == "id") &&
      card >= math.max(5.0, MinDistinctFracForTextSearch * rows)
    val joinable = raw.dtype != "date" && avgLen <= MaxJoinableValueLength && card > 0

    val tokens = distinct.flatMap(Tokenizer.tokenize).distinct

    ColumnProfile(
      collection = raw.collection,
      table = raw.table,
      column = raw.column,
      dtype = raw.dtype,
      rows = rows,
      card = card,
      uniqueness = if (rows == 0) 0.0 else card.toDouble / rows,
      bag = tokens,
      sig = MinHash.signature(distinct),
      contentEmb = WordVectors.meanPool(tokens),
      metaEmb = WordVectors.meanPool(nameTokens(raw.table) ++ nameTokens(raw.column)),
      formatFeats = Array(avgLen, fracDigit, fracAlpha),
      numMin = if (nums.nonEmpty) nums.min else Double.NaN,
      numMax = if (nums.nonEmpty) nums.max else Double.NaN,
      tags = Seq(
        if (textSearch) Some(Tags.TextSearch) else None,
        if (joinable) Some(Tags.Joinable) else None,
      ).flatten,
    )
  }

  def profileDocs(
      spark: SparkSession,
      docs: Seq[RawDoc],
      maxDfFrac: Double = DefaultMaxDfFrac,
  ): Seq[DocProfile] = {
    import spark.implicits._
    if (docs.isEmpty) return Seq.empty

    // 1. NLP pipeline per document (distributed map): (collection, id, title, bag).
    val bags: Dataset[(String, String, String, Seq[String])] =
      spark.createDataset(docs)
        .map(d => (d.collection, d.id, d.title, Tokenizer.bagOfWords(d.title + " " + d.text)))

    // 2. Corpus-level doc-frequency filter as a dataflow: terms occurring in
    //    more than maxDfFrac of the documents are non-discriminative.
    val nDocs = docs.size.toDouble
    val stopTerms = bags
      .select($"_2" as "id", explode($"_4") as "term")
      .distinct()
      .groupBy($"term")
      .agg(count(lit(1)) as "df")
      .where($"df" > lit(maxDfFrac * nDocs) && $"df" > 1) // df>1 guard: never drop on degenerate corpora
      .select($"term")
      .as[String]
      .collect()
      .toSet
    val stopB = spark.sparkContext.broadcast(stopTerms)

    // 3. Sketch each filtered bag (distributed map), then collect profiles.
    bags
      .map { case (collection, id, title, words) =>
        val bag = words.filterNot(stopB.value.contains)
        DocProfile(
          collection = collection,
          id = id,
          title = title,
          bag = bag,
          card = bag.distinct.size.toLong,
          sig = MinHash.signature(bag.distinct),
          contentEmb = WordVectors.meanPool(bag),
          metaEmb = WordVectors.meanPool(Tokenizer.bagOfWords(title)),
        )
      }
      .collect()
      .toSeq
  }

  /** Tokens of a table/column identifier: split on `_` and camel case. */
  def nameTokens(name: String): Seq[String] =
    Tokenizer.tokenize(name.replaceAll("([a-z])([A-Z])", "$1 $2"))
}
