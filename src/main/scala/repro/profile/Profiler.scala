package repro.profile

import java.util.regex.Pattern

import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.sql.SparkSession

import repro.embed.WordVectors
import repro.sketch.MinHash
import repro.text.Tokenizer

/** The CMDL profiler (§3): a distributed scan-and-sketch pipeline.
  *
  * Both modalities enter as RDDs of raw rows, `RawColumn` for tabular columns
  * and `RawDoc` for documents, cut into `defaultParallelism` slices; every
  * sketch (minwise signature, solo content/metadata embeddings, numeric
  * statistics, format features, task tags) is computed in a distributed
  * `map`, and `collect` returns the profiles in input order. The document
  * path is three steps: a distributed tokenize pass, a driver-side count of
  * document frequency over the collected bags (the corpus-level filter of the
  * paper's Gensim pipeline), and a distributed sketch pass over the filtered
  * bags. The count is a few milliseconds of hashing for a lake's documents;
  * a Spark SQL explode/distinct/groupBy plan for the same count cost tens of
  * times more in planning and shuffling, and its broadcast stop set outlived
  * the call.
  */
object Profiler {

  /** Columns with fewer distinct values than this fraction of the rows are
    * considered categorical-like and excluded from text search (§3 tagging).
    */
  val MinDistinctFracForTextSearch = 0.05

  /** Values longer than this mark a long-text column, excluded from PK-FK. */
  val MaxJoinableValueLength = 40

  /** Terms present in more than this fraction of documents are dropped. */
  val MaxDfFrac = 0.5

  def profileColumns(spark: SparkSession, cols: Seq[RawColumn]): Seq[ColumnProfile] =
    distributedMap(spark, cols)(profileColumn)

  /** Single-column sketching — exposed for tests and driver-side use. */
  def profileColumn(raw: RawColumn): ColumnProfile = {
    val norm = raw.normValues
    val distinct = norm.distinct
    val rows = norm.size.toLong
    val card = distinct.size.toLong
    val nums = if (raw.dtype == "numeric") norm.flatMap(v => v.toDoubleOption) else Seq.empty
    var chars, digits, letters = 0
    for (v <- distinct) {
      var i = 0
      while (i < v.length) {
        val ch = v.charAt(i)
        if (ch.isDigit) digits += 1
        if (ch.isLetter) letters += 1
        i += 1
      }
      chars += v.length
    }
    val avgLen = if (distinct.isEmpty) 0.0 else chars.toDouble / distinct.size
    val fracDigit = if (chars == 0) 0.0 else digits.toDouble / chars
    val fracAlpha = if (chars == 0) 0.0 else letters.toDouble / chars

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
      metaEmb = WordVectors.meanPool(columnMetaTokens(raw.table, raw.column)),
      formatFeats = Array(avgLen, fracDigit, fracAlpha),
      numMin = if (nums.nonEmpty) nums.min else Double.NaN,
      numMax = if (nums.nonEmpty) nums.max else Double.NaN,
      tags = Seq(
        if (textSearch) Some(Tags.TextSearch) else None,
        if (joinable) Some(Tags.Joinable) else None,
      ).flatten,
    )
  }

  def profileDocs(spark: SparkSession, docs: Seq[RawDoc]): Seq[DocProfile] = {
    // 1. NLP pipeline per document (distributed map).
    val bags = distributedMap(spark, docs)(_.bagOfWords)

    // 2. Corpus-level doc-frequency filter on the driver: terms occurring in
    //    more than MaxDfFrac of the documents are non-discriminative.
    val df = mutable.HashMap.empty[String, Int]
    for (bag <- bags; t <- bag.distinct) df.update(t, df.getOrElse(t, 0) + 1)
    val limit = MaxDfFrac * docs.size
    val stopTerms = df.collect { case (t, n) if n > limit && n > 1 => t }.toSet // n > 1: never drop on degenerate corpora

    // 3. Sketch each filtered bag (distributed map).
    distributedMap(spark, docs.zip(bags)) { case (d, words) =>
      val bag = words.filterNot(stopTerms.contains)
      val distinct = bag.distinct
      DocProfile(
        collection = d.collection,
        id = d.id,
        title = d.title,
        bag = bag,
        card = distinct.size.toLong,
        sig = MinHash.signature(distinct),
        contentEmb = WordVectors.meanPool(bag),
        metaEmb = WordVectors.meanPool(docMetaTokens(d.title)),
      )
    }
  }

  /** `xs.map(f)` as a Spark job over `defaultParallelism` slices, in input order. */
  private def distributedMap[A: ClassTag, B: ClassTag](spark: SparkSession, xs: Seq[A])(f: A => B): Seq[B] = {
    if (xs.isEmpty) return Seq.empty
    val sc = spark.sparkContext
    sc.parallelize(xs, sc.defaultParallelism).map(f).collect().toSeq
  }

  private val CamelHump = Pattern.compile("([a-z])([A-Z])")

  /** Tokens of a table/column identifier: split on `_` and camel case. */
  def nameTokens(name: String): Seq[String] =
    Tokenizer.tokenize(CamelHump.matcher(name).replaceAll("$1 $2"))

  /** A column's metadata tokens, its table's then its own name tokens (`metaEmb`, the metadata LF's index). */
  def columnMetaTokens(table: String, column: String): Seq[String] = nameTokens(table) ++ nameTokens(column)

  /** A document's metadata tokens, its title's bag of words (`metaEmb`, the metadata LF's probe). */
  def docMetaTokens(title: String): Seq[String] = Tokenizer.bagOfWords(title)
}
