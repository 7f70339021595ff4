package repro.core

import java.util.stream.IntStream

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.discover.{DocToTable, JoinDiscovery, UnionDiscovery}
import repro.embed.{EmbeddingMatrix, WordVectors}
import repro.joint.{Mlp, TripletTraining}
import repro.label.{LabelingFunctions, SnorkelLite}
import repro.lake.Lake
import repro.profile.{ColumnProfile, DocProfile, Profiler}
import repro.sketch.MinHash
import repro.text.Bm25Index

/** The end-to-end CMDL system (Fig. 2): profiling → indexing → weak
  * supervision → joint representation → discovery front-ends.
  *
  * Construction runs the distributed profiler over both modalities and
  * builds every index of §3. `weakLabels` runs the Fig. 3 pipeline
  * (sampling, LF probes, generative EM, discriminator)
  * and returns a relatedness function over (doc, column) pairs; `trainJoint`
  * runs the Fig. 4/5 triplet workflow and returns joint embeddings for all
  * DEs of both modalities.
  */
final class Cmdl(spark: SparkSession, val lake: Lake) {

  val colProfiles: Seq[ColumnProfile] = Profiler.profileColumns(spark, lake.rawColumns)
  val docProfiles: Seq[DocProfile] = Profiler.profileDocs(spark, lake.docs)

  /** Column profiles by `table.column` ref; two columns sharing a ref fail construction. */
  val colByRef: Map[String, ColumnProfile] = Cmdl.uniqueBy(colProfiles, "column ref")(_.ref, _.collection)

  /** Document profiles by id; two documents sharing an id fail construction. */
  val docById: Map[String, DocProfile] = Cmdl.uniqueBy(docProfiles, "document id")(_.id, _.collection)

  /** The four labeling-function indexes of Fig. 3 (also Table 6's probes). */
  val lfs = new LabelingFunctions(colProfiles)

  /** Solo-embedding Doc→Table scan over the text columns' content embeddings
    * (SRQL's cross-modal search without a joint model). It shares the matrix
    * of `lfs.annoy`, which indexes exactly these embeddings in this order.
    */
  lazy val soloTables = new DocToTable.TableScan(lfs.annoy.vectors, lfs.textCols.map(_.table))

  /** BM25 over the document modality (content_search in Text mode). */
  lazy val bm25Docs = new Bm25Index(docProfiles.map(d => d.id -> d.bag).toMap)

  /** Containment-ranked syntactic join index (Table 3). */
  lazy val syntacticIndex = new JoinDiscovery.SyntacticIndex(colProfiles)

  /** Ensemble unionability index (Table 5, Fig. 7). */
  lazy val unionIndex = new UnionDiscovery.UnionIndex(colProfiles)

  def profilesIn(collections: String*): Seq[ColumnProfile] = {
    val set = collections.toSet
    colProfiles.filter(p => set.contains(p.collection))
  }

  // ------------------------------------------------------------------
  // Weak supervision (Fig. 3)
  // ------------------------------------------------------------------

  /** Discriminator features for a (doc, col) pair: the underlying similarity
    * scores of the four index families.
    */
  def pairFeatures(d: DocProfile, c: ColumnProfile): Array[Double] = Array(
    math.max(0.0, WordVectors.cosine(d.contentEmb, c.contentEmb)),
    MinHash.estContainment(d.sig, d.card, c.sig, c.card),
    math.min(1.0, lfs.bm25Content.score(d.bag, c.ref) / 10.0),
    math.max(0.0, WordVectors.cosine(d.metaEmb, c.metaEmb)),
  )

  final case class WeakLabels(
      lfAccuracies: Seq[Double],
      discWeights: Array[Double],
      sampledDocs: Seq[String],
      sampledCols: Seq[String],
      emLastMaxChange: Double, // the generative model's `lastMaxChange`
  ) {
    /** Relatedness degree in [0,1] for any (doc, col) pair. */
    def rel(cmdl: Cmdl)(docId: String, colRef: String): Double =
      (cmdl.docById.get(docId), cmdl.colByRef.get(colRef)) match {
        case (Some(d), Some(c)) => SnorkelLite.predict(discWeights, cmdl.pairFeatures(d, c))
        case _                  => 0.0
      }

    /** `rel(cmdl)` of every document and text column: `relRows(cmdl)(d)(i)`
      * is the label of `cmdl.docProfiles(d)` and `cmdl.lfs.textCols(i)`. The
      * rows are all computed here, split across the common `ForkJoinPool`;
      * each row on its own, with both cosines by the blocked kernel (content
      * over `lfs.annoy.vectors`, metadata over a matrix built here), BM25 from
      * one `scoreAll`, containment and the discriminator as `pairFeatures`
      * and `rel` compute them. Every value equals `rel`'s bit for bit.
      */
    def relRows(cmdl: Cmdl): Array[Array[Double]] = {
      val cols = cmdl.lfs.textCols.toIndexedSeq
      val docs = cmdl.docProfiles.toIndexedSeq
      val all = Array.range(0, cols.size)
      val content = cmdl.lfs.annoy.vectors // row i: the content embedding of cols(i)
      val meta = new EmbeddingMatrix(cols.map(_.metaEmb))
      val bm25 = cmdl.lfs.bm25Content
      val bm25At = cols.map(c => bm25.indexOf(c.ref)).toArray
      def row(d: DocProfile): Array[Double] = {
        val contentCos = new Array[Double](cols.size)
        val metaCos = new Array[Double](cols.size)
        content.cosines(d.contentEmb, all, cols.size, contentCos)
        meta.cosines(d.metaEmb, all, cols.size, metaCos)
        val bm25Scores = bm25.scoreAll(d.bag)
        val x = new Array[Double](4)
        Array.tabulate(cols.size) { i =>
          val c = cols(i)
          x(0) = math.max(0.0, contentCos(i))
          x(1) = MinHash.estContainment(d.sig, d.card, c.sig, c.card)
          x(2) = math.min(1.0, bm25Scores(bm25At(i)) / 10.0)
          x(3) = math.max(0.0, metaCos(i))
          SnorkelLite.predict(discWeights, x)
        }
      }
      val rows = new Array[Array[Double]](docs.size)
      IntStream.range(0, docs.size).parallel().forEach(d => rows(d) = row(docs(d)))
      rows
    }
  }

  /** Runs the Fig. 3 training-dataset generator: sample both modalities,
    * probe the LF indexes, fit the generative model over all four LFs, then
    * train the discriminator. The paper's gold-label tuning (§4.1) is not
    * implemented; see DESIGN.md §2.
    */
  def weakLabels(sampleFrac: Double = 0.1, seed: Long = 77L): WeakLabels = {
    requireBothModalities("weak labelling")
    val rnd = new Random(seed)
    val docs = rnd.shuffle(docProfiles.toVector)
      .take(math.max(12, (docProfiles.size * sampleFrac).toInt))
    val cols = rnd.shuffle(lfs.textCols.toVector)
      .take(math.max(12, (lfs.textCols.size * sampleFrac).toInt))

    // one probe per sampled document labels it against every sampled column
    val pairs = for {
      d <- docs
      probe = lfs.probe(d)
      c <- cols
    } yield SnorkelLite.LabeledPair(d.id, c.ref, lfs.votes(probe, c.ref))

    // the generative model only considers pairs voted 1 by at least one LF
    val positivePairs = pairs.filter(_.votes.sum > 0)

    val gen = SnorkelLite.generative(positivePairs)

    // discriminator: probabilistic positives + the all-zero-vote pairs as
    // (near-)negatives so the classifier sees both classes
    val negPairs = rnd.shuffle(pairs.filter(_.votes.sum == 0))
      .take(math.max(positivePairs.size * 2, 50))
    val trainData =
      positivePairs.map(p => (pairFeatures(docById(p.doc), colByRef(p.col)), gen.probs((p.doc, p.col)))) ++
      negPairs.map(p => (pairFeatures(docById(p.doc), colByRef(p.col)), 0.02))
    val w = SnorkelLite.trainDiscriminator(trainData.toIndexedSeq, seed = seed)

    WeakLabels(gen.accuracies, w, docs.map(_.id), cols.map(_.ref), gen.lastMaxChange)
  }

  /** Fails, naming the empty side, unless the lake has documents and text-searchable columns. */
  private def requireBothModalities(what: String): Unit =
    require(docProfiles.nonEmpty && lfs.textCols.nonEmpty,
      s"$what needs documents and text-searchable columns; the lake has " +
        s"${docProfiles.size} documents and ${lfs.textCols.size} text columns")

  // ------------------------------------------------------------------
  // Joint representation (Figs. 4 & 5)
  // ------------------------------------------------------------------

  final case class Joint(model: Mlp, epochs: Int, lossHistory: Vector[Double],
      docEmb: Map[String, Array[Float]], colEmb: Map[String, Array[Float]], stats: TripletTraining.Stats) {

    /** Joint-space Doc→Table scan over the text columns, built once; a column
      * without a joint embedding scores 0.
      */
    lazy val tables: DocToTable.TableScan =
      DocToTable.TableScan(lfs.textCols, c => colEmb.getOrElse(c.ref, new Array[Float](model.outDim)))
  }

  /** Trains the triplet model on the weak labels and applies it to all DEs. */
  def trainJoint(labels: WeakLabels, cfg: TripletTraining.Config = TripletTraining.Config()): Joint = {
    requireBothModalities("joint training")
    val rows = labels.relRows(this)
    val docDes = docProfiles.map(d => TripletTraining.De(d.id, TripletTraining.encode(d.metaEmb, d.contentEmb)))
    val colDes = lfs.textCols.map(c => TripletTraining.De(c.ref, TripletTraining.encode(c.metaEmb, c.contentEmb)))
    val result = TripletTraining.train(docDes, colDes, rows(_), cfg)
    Joint(result.model, result.epochs, result.lossHistory,
      docEmb = TripletTraining.applyModel(result.model, docDes),
      colEmb = TripletTraining.applyModel(result.model, colDes),
      stats = result.stats)
  }
}

object Cmdl {
  /** `xs` by `key`, failing with both collections named if two share a key. */
  private def uniqueBy[A](xs: Seq[A], what: String)(key: A => String, collection: A => String): Map[String, A] = {
    val byKey = xs.map(x => key(x) -> x).toMap
    if (byKey.size < xs.size) {
      val dup = xs.groupBy(key).values.filter(_.size > 1).minBy(g => key(g.head))
      throw new IllegalArgumentException(s"$what '${key(dup(0))}' occurs in collections " +
        s"'${collection(dup(0))}' and '${collection(dup(1))}'; every $what must be unique across the lake")
    }
    byKey
  }
}
