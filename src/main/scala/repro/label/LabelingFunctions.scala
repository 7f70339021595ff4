package repro.label

import repro.embed.{AnnoyIndex, EmbeddingMatrix, WordVectors}
import repro.profile.{ColumnProfile, DocProfile, Profiler, Tags}
import repro.sketch.{LshEnsemble, MinHash}
import repro.text.Bm25Index

/** CMDL's text-column space: the four index-probe labeling functions of
  * Fig. 3 and the discriminator features over the same four index families.
  *
  * Each LF probes one of the indexes built on the profiler sketches for the
  * top-k columns matching a document; a (doc, col) pair is voted 1 iff the
  * column appears in the probe result. Probes are per-document, so a single
  * probe labels the pair against *every* column at once — the property that
  * keeps label generation cheap (§4.1). Low-quality syntactic matches (below
  * a small containment floor) are eliminated, as the paper prescribes.
  * Row `i` of `content` and `meta` and entry `i` of `bm25At` belong to
  * `textCols(i)`.
  */
final class LabelingFunctions(cols: Seq[ColumnProfile]) {

  /** Columns returned per probe. */
  val k = 10

  val textCols: IndexedSeq[ColumnProfile] = cols.filter(_.hasTag(Tags.TextSearch)).toIndexedSeq

  /** Annoy index over solo content embeddings (semantic LF). */
  val annoy = new AnnoyIndex(textCols.map(c => (c.ref, c.contentEmb)))

  /** LSHEnsemble over minhash signatures (syntactic containment LF). */
  val lsh = new LshEnsemble(textCols.map(c => LshEnsemble.Entry(c.ref, c.sig, c.card)))

  /** BM25 over column content bags (content keyword LF). */
  val bm25Content = new Bm25Index(textCols.map(c => c.ref -> c.bag).toMap)

  /** BM25 over column metadata — table and column name tokens (metadata LF). */
  val bm25Meta = new Bm25Index(textCols.map(c => c.ref -> Profiler.columnMetaTokens(c.table, c.column)).toMap)

  /** The text columns' content embeddings (`annoy`'s), metadata embeddings
    * and positions in `bm25Content.scoreAll`; the last two built on first use.
    */
  def content: EmbeddingMatrix = annoy.vectors
  private lazy val meta: EmbeddingMatrix = new EmbeddingMatrix(textCols.map(_.metaEmb))
  private lazy val bm25At: Array[Int] = textCols.map(c => bm25Content.indexOf(c.ref)).toArray
  private lazy val allRows: Array[Int] = Array.range(0, textCols.size)

  /** Probe all four indexes for one document: per-LF positive column refs. */
  def probe(doc: DocProfile): Map[String, Set[String]] = Map(
    "semantic" -> annoy.query(doc.contentEmb, k).map(_._1).toSet,
    "syntactic" -> lsh.query(doc.sig, doc.card, k).filter(_._2 > 0.05).map(_._1).toSet,
    "content" -> bm25Content.query(doc.bag, k).map(_._1).toSet,
    "metadata" -> bm25Meta.query(Profiler.docMetaTokens(doc.title), k).map(_._1).toSet,
  )

  /** Vote vector for one (doc, col) pair given that doc's probe result. */
  def votes(probeResult: Map[String, Set[String]], colRef: String): Seq[Int] =
    LabelingFunctions.Names.map(n => if (probeResult(n).contains(colRef)) 1 else 0)

  /** Discriminator features of a (doc, col) pair, for any column. */
  def pairFeatures(d: DocProfile, c: ColumnProfile): Array[Double] = {
    val x = new Array[Double](4)
    fillFeatures(x, d, c, WordVectors.cosine(d.contentEmb, c.contentEmb), bm25Content.score(d.bag, c.ref),
      WordVectors.cosine(d.metaEmb, c.metaEmb))
    x
  }

  /** `f` of the features of `d` and `textCols(i)`, for every text column `i`:
    * the cosines by the blocked kernel over `content` and `meta`, BM25 by one
    * `scoreAll`. The features of every pair go into one 4-element buffer,
    * which `f` must not keep; each equals `pairFeatures`' bit for bit.
    */
  def featureRow(d: DocProfile)(f: Array[Double] => Double): Array[Double] = {
    val n = textCols.size
    val contentCos, metaCos, out = new Array[Double](n) // three distinct arrays
    val x = new Array[Double](4)
    content.cosines(d.contentEmb, allRows, n, contentCos)
    meta.cosines(d.metaEmb, allRows, n, metaCos)
    val bm25 = bm25Content.scoreAll(d.bag)
    var i = 0
    while (i < n) {
      fillFeatures(x, d, textCols(i), contentCos(i), bm25(bm25At(i)), metaCos(i))
      out(i) = f(x); i += 1
    }
    out
  }

  /** Fills `x` with the discriminator features of (d, c), given the pair's
    * content cosine, BM25 content score and metadata cosine: the content
    * cosine floored at 0, doc→column MinHash containment, BM25 / 10 capped at
    * 1 and the metadata cosine floored at 0.
    */
  private def fillFeatures(x: Array[Double], d: DocProfile, c: ColumnProfile, contentCos: Double,
      bm25: Double, metaCos: Double): Unit = {
    x(0) = math.max(0.0, contentCos)
    x(1) = MinHash.estContainment(d.sig, d.card, c.sig, c.card)
    x(2) = math.min(1.0, bm25 / 10.0)
    x(3) = math.max(0.0, metaCos)
  }
}

object LabelingFunctions {
  /** Names of the four labeling functions, in vote-vector order. */
  val Names: Seq[String] = Seq("semantic", "syntactic", "content", "metadata")
}
