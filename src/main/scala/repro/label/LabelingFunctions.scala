package repro.label

import repro.embed.AnnoyIndex
import repro.profile.{ColumnProfile, DocProfile, Profiler, Tags}
import repro.sketch.LshEnsemble
import repro.text.{Bm25Index, Tokenizer}

/** CMDL's four index-probe labeling functions (Fig. 3).
  *
  * Each LF probes one of the indexes built on the profiler sketches for the
  * top-k columns matching a document; a (doc, col) pair is voted 1 iff the
  * column appears in the probe result. Probes are per-document, so a single
  * probe labels the pair against *every* column at once — the property that
  * keeps label generation cheap (§4.1). Low-quality syntactic matches (below
  * a small containment floor) are eliminated, as the paper prescribes.
  */
final class LabelingFunctions(cols: Seq[ColumnProfile]) {

  /** Columns returned per probe. */
  val k = 10

  val textCols: Seq[ColumnProfile] = cols.filter(_.hasTag(Tags.TextSearch))

  /** Annoy index over solo content embeddings (semantic LF). */
  val annoy = new AnnoyIndex(textCols.map(c => (c.ref, c.contentEmb)).toIndexedSeq)

  /** LSHEnsemble over minhash signatures (syntactic containment LF). */
  val lsh = new LshEnsemble(textCols.map(c => LshEnsemble.Entry(c.ref, c.sig, c.card)))

  /** BM25 over column content bags (content keyword LF). */
  val bm25Content = new Bm25Index(textCols.map(c => c.ref -> c.bag).toMap)

  /** BM25 over column metadata — table and column name tokens (metadata LF). */
  val bm25Meta = new Bm25Index(textCols.map(c =>
    c.ref -> (Profiler.nameTokens(c.table) ++ Profiler.nameTokens(c.column))).toMap)

  /** Names of the four labeling functions, in vote-vector order. */
  val names: Seq[String] = LabelingFunctions.Names

  /** Probe all four indexes for one document: per-LF positive column refs. */
  def probe(doc: DocProfile): Map[String, Set[String]] = Map(
    "semantic" -> annoy.query(doc.contentEmb, k).map(_._1).toSet,
    "syntactic" -> lsh.query(doc.sig, doc.card, k).filter(_._2 > 0.05).map(_._1).toSet,
    "content" -> bm25Content.query(doc.bag, k).map(_._1).toSet,
    "metadata" -> bm25Meta.query(Tokenizer.bagOfWords(doc.title), k).map(_._1).toSet,
  )

  /** Vote vector for one (doc, col) pair given that doc's probe result. */
  def votes(probeResult: Map[String, Set[String]], colRef: String): Seq[Int] =
    names.map(n => if (probeResult(n).contains(colRef)) 1 else 0)
}

object LabelingFunctions {
  val Names: Seq[String] = Seq("semantic", "syntactic", "content", "metadata")
}
