package repro.text

import java.util.regex.Pattern

/** NLP preprocessing pipeline for unstructured documents (§3, "Documents
  * Format Transformation").
  *
  * CMDL converts each document into a column-style bag of words through
  * tokenization, stopword removal, part-of-speech filtering (retain nouns)
  * and lemmatization, then drops words occurring in a large fraction of the
  * documents as non-discriminative; that corpus-level step is the driver-side
  * count of `Profiler.profileDocs`. The paper uses a Gensim pipeline; this
  * is a deterministic, dependency-free re-implementation: the POS filter is
  * a suffix heuristic (drops obvious verb/adverb forms), the lemmatizer a
  * rule-based English plural/inflection stripper. Both are exact enough for
  * the synthetic lakes, whose vocabulary the generator controls.
  */
object Tokenizer {

  /** Minimal English stopword list (function words only). */
  val Stopwords: Set[String] = Set(
    "a", "an", "the", "and", "or", "but", "if", "then", "else", "of", "in",
    "on", "at", "to", "from", "by", "with", "for", "as", "is", "are", "was",
    "were", "be", "been", "being", "it", "its", "this", "that", "these",
    "those", "he", "she", "they", "we", "you", "i", "his", "her", "their",
    "our", "your", "not", "no", "nor", "so", "too", "very", "can", "will",
    "just", "do", "does", "did", "has", "have", "had", "about", "into",
    "over", "under", "between", "both", "each", "which", "who", "whom",
    "what", "when", "where", "why", "how", "all", "any", "some", "such",
    "than", "also", "there", "here", "during", "per", "via",
  )

  /** Suffixes that mark non-noun forms under the heuristic POS filter. */
  private val NonNounSuffixes = Seq("ly", "ingly", "edly")

  private val NonAlphanumeric = Pattern.compile("[^a-z0-9]+")

  /** Lowercase and split on any non-alphanumeric run. */
  def tokenize(text: String): Seq[String] =
    NonAlphanumeric.split(text.toLowerCase).toSeq.filter(_.nonEmpty)

  /** Drop stopwords, single characters, and pure numbers. */
  def removeStopwords(tokens: Seq[String]): Seq[String] =
    tokens.filter(t => t.length > 1 && !Stopwords.contains(t) && !t.forall(_.isDigit))

  /** Heuristic POS filter: retain noun-like tokens (drops adverb forms). */
  def nounFilter(tokens: Seq[String]): Seq[String] =
    tokens.filterNot(t => NonNounSuffixes.exists(s => t.length > s.length + 2 && t.endsWith(s)))

  /** Rule-based English lemmatizer: strip plural / simple inflections. */
  def lemmatize(token: String): String = token match {
    case t if t.length > 4 && t.endsWith("ies") => t.dropRight(3) + "y"
    case t if t.length > 4 && t.endsWith("sses") => t.dropRight(2)
    case t if t.length > 3 && t.endsWith("es") && !t.endsWith("ses") => t.dropRight(2)
    case t if t.length > 3 && t.endsWith("s") && !t.endsWith("ss") => t.dropRight(1)
    case t => t
  }

  /** Full per-document pipeline (no corpus-level doc-frequency filter). */
  def bagOfWords(text: String): Seq[String] =
    nounFilter(removeStopwords(tokenize(text))).map(lemmatize)
}
