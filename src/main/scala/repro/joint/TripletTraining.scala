package repro.joint

import scala.collection.mutable
import scala.util.Random

/** The joint-representation training workflow of Fig. 4 and Fig. 5.
  *
  * Mini-Batch Generator: each epoch partitions the document and column DEs
  * into non-overlapping mini-batches whose m:n ratio matches the global
  * document:column ratio; every DE lands in exactly one batch pair.
  *
  * Triplet Generator with hard sampling: within a batch, a document anchor's
  * positives (relatedness ≥ threshold) are aggregated into a single mean
  * instance, and only the *hard* negatives — those whose current joint-space
  * distance to the anchor is at most the mean negative distance — are
  * aggregated into the negative instance, yielding exactly one triplet per
  * anchor. The quadratic positive×negative triplet set of the Fig. 10b
  * ablation is not implemented (DESIGN.md §2).
  *
  * Training is sequential per-triplet SGD: each triplet's step updates the
  * weights before the next anchor is sampled. Only the hard-sampling forward
  * passes run on several cores, inside `Mlp.embedAll`, and no step runs
  * while they do. The weak labels come in as rows: `train` asks for a
  * document's row of labels over every column once, when it first anchors
  * that document, and thresholds the whole row then; a batch is then split
  * into positives and negatives by (doc index, column index). A column's
  * embedding is reused until a step changes the weights (`Mlp.version`);
  * none of this changes a single bit of the result. The paper's PyTorch
  * semantics, one accumulated gradient per batch, would change the numerics
  * and is not implemented (the first lever of ROADMAP item 1).
  */
object TripletTraining {

  /** A discoverable element ready for training: id + 200-d input encoding. */
  final case class De(id: String, enc: Array[Double])

  final case class Config(
      batchFrac: Double = 0.08,
      margin: Double = 0.2,
      lr: Double = 0.02,
      maxEpochs: Int = 300,
      convergenceTol: Double = 1e-4,
      posThreshold: Double = 0.5,
      seed: Long = 23L,
  )

  /** Where a training run spent its time: splitting batches into positives
    * and negatives (`relNs`, which includes thresholding each document's label
    * row on its first anchoring; `relCalls` counts the labels so thresholded,
    * one row of every column per anchored document), forward passes for hard
    * sampling (`forwardPasses` samples in `forwardCalls` batched calls), SGD
    * steps; `steps` is also the number of triplets trained on, one step each.
    * Also why anchors gave no triplet, summed over epochs: no positive in
    * the batch (`noPosAnchors`), or positives but no (hard) negative
    * (`noNegAnchors`); and the hard negatives pooled into triplets.
    */
  final case class Stats(relCalls: Long, relNs: Long, forwardPasses: Long, forwardCalls: Long,
      forwardNs: Long, steps: Long, stepNs: Long, noPosAnchors: Long, noNegAnchors: Long, hardNegatives: Long)

  final case class Result(model: Mlp, epochs: Int, lossHistory: Vector[Double], stats: Stats)

  type Triplet = (Array[Double], Array[Double], Array[Double])

  /** Concatenate metadata and content solo embeddings into the 200-d input. */
  def encode(metaEmb: Array[Float], contentEmb: Array[Float]): Array[Double] = {
    val out = new Array[Double](metaEmb.length + contentEmb.length)
    var i = 0
    while (i < metaEmb.length) { out(i) = metaEmb(i); i += 1 }
    var j = 0
    while (j < contentEmb.length) { out(i + j) = contentEmb(j); j += 1 }
    out
  }

  /** Triplets for one anchor within a mini-batch (Fig. 5). */
  def tripletsFor(
      model: Mlp,
      anchor: De,
      batchCols: Seq[De],
      rel: (String, String) => Double,
      cfg: Config,
  ): Seq[Triplet] = {
    val cols = batchCols.toIndexedSeq
    val row = cols.map(c => rel(anchor.id, c.id)).toArray
    val labels = new PosRows(IndexedSeq(anchor), cols, _ => row, cfg.posThreshold)
    anchorTriplet(0, Array.range(0, cols.size), labels, new EmbedCache(model, cols), new Tally).toSeq
  }

  /** The triplet generator shared by `tripletsFor` and `train`: the triplet,
    * if any, of doc `d` against the columns `batch` (indices into the labels'
    * columns).
    */
  private def anchorTriplet(d: Int, batch: Array[Int], labels: PosRows, cache: EmbedCache,
      tally: Tally): Option[Triplet] = {
    val t0 = System.nanoTime()
    val isPos = labels.row(d)
    val (pos, neg) = batch.partition(c => isPos(c))
    tally.relNs += System.nanoTime() - t0
    // anchors without both are ignored
    if (pos.isEmpty) { tally.noPos += 1; return None }
    if (neg.isEmpty) { tally.noNeg += 1; return None }
    val anchor = labels.docs(d).enc
    def enc(c: Int) = labels.cols(c).enc
    val t1 = System.nanoTime()
    val (aEmb, negEmb) = cache.embed(anchor, neg)
    tally.forwardNs += System.nanoTime() - t1
    val dists = negEmb.map(cache.model.dist2(aEmb, _))
    var sum = 0.0
    dists.foreach(sum += _)
    val cutoff = sum / dists.length
    val hard = neg.indices.filter(dists(_) <= cutoff).map(i => enc(neg(i)))
    tally.hardNegs += hard.size
    if (hard.isEmpty) { tally.noNeg += 1; None }
    else Some((anchor, mean(pos.toSeq.map(enc)), mean(hard)))
  }

  /** Full training loop: epochs of covering mini-batch partitions until the
    * epoch loss change falls below the tolerance. `rows(d)` holds doc `d`'s
    * weak labels over `cols`, in order; it is asked for at most once per doc.
    */
  def train(docs: Seq[De], cols: Seq[De], rows: Int => Array[Double],
      cfg: Config = Config()): Result = {
    require(docs.nonEmpty && cols.nonEmpty, "need DEs of both modalities")
    require(cfg.batchFrac > 0 && cfg.batchFrac <= 1, s"batchFrac must be in (0, 1], got ${cfg.batchFrac}")
    require(cfg.lr > 0, s"lr must be positive, got ${cfg.lr}")
    require(cfg.margin >= 0, s"margin must be non-negative, got ${cfg.margin}")
    require(cfg.maxEpochs >= 0, s"maxEpochs must be non-negative, got ${cfg.maxEpochs}")
    val model = new Mlp(seed = cfg.seed)
    val labels = new PosRows(docs.toIndexedSeq, cols.toIndexedSeq, rows, cfg.posThreshold)
    val cache = new EmbedCache(model, labels.cols)
    val tally = new Tally
    val nBatches = math.max(1, math.ceil(1.0 / cfg.batchFrac).toInt)
    val rnd = new Random(cfg.seed)
    val losses = mutable.ArrayBuffer.empty[Double]
    var triplets = 0L
    var epoch = 0
    var converged = false
    while (epoch < cfg.maxEpochs && !converged) {
      var epochLoss = 0.0
      var count = 0
      for ((db, cb) <- miniBatches(docs.size, cols.size, nBatches, rnd); d <- db) {
        for ((a, p, nn) <- anchorTriplet(d, cb, labels, cache, tally)) {
          val t0 = System.nanoTime()
          epochLoss += model.tripletStep(a, p, nn, cfg.margin, cfg.lr)
          tally.stepNs += System.nanoTime() - t0
          count += 1
          triplets += 1
        }
      }
      val avgLoss = if (count == 0) 0.0 else epochLoss / count
      losses += avgLoss
      if (losses.size > 5 && math.abs(losses(losses.size - 2) - avgLoss) < cfg.convergenceTol)
        converged = true
      epoch += 1
    }
    val stats = Stats(labels.thresholded, tally.relNs, cache.passes, cache.calls, tally.forwardNs, triplets,
      tally.stepNs, tally.noPos, tally.noNeg, tally.hardNegs)
    Result(model, epoch, losses.toVector, stats)
  }

  /** Apply a trained model to DEs, producing their joint embeddings. */
  def applyModel(model: Mlp, des: Seq[De]): Map[String, Array[Float]] = {
    val embs = model.embedAll(des.map(_.enc).toIndexedSeq)
    des.iterator.zip(embs.iterator).map { case (d, e) => d.id -> e.map(_.toFloat) }.toMap
  }

  /** One epoch's mini-batch pairs over doc and column indices. Both sides are
    * shuffled and cut into `nBatches` groups of ceil(n / nBatches); when the
    * two sides then yield different group counts, both are split evenly into
    * the smaller count instead, so that no DE sits an epoch out.
    */
  private[joint] def miniBatches(nDocs: Int, nCols: Int, nBatches: Int,
      rnd: Random): Vector[(Array[Int], Array[Int])] = {
    val ds = rnd.shuffle(Vector.range(0, nDocs))
    val cs = rnd.shuffle(Vector.range(0, nCols))
    def grouped(v: Vector[Int]) = v.grouped(math.max(1, math.ceil(v.size.toDouble / nBatches).toInt)).toVector
    def even(v: Vector[Int], k: Int) =
      Vector.tabulate(k)(i => v.slice((i.toLong * v.size / k).toInt, ((i + 1L) * v.size / k).toInt))
    val (db, cb) = (grouped(ds), grouped(cs))
    val pairs =
      if (db.size == cb.size) db.zip(cb)
      else { val k = math.min(db.size, cb.size); even(ds, k).zip(even(cs, k)) }
    pairs.map { case (d, c) => (d.toArray, c.toArray) }
  }

  /** The weak-label test label ≥ threshold for one training run, by (doc,
    * column) index: doc `d`'s row is asked of `rows` and thresholded whole
    * when `d` is first anchored, and kept.
    */
  private final class PosRows(val docs: IndexedSeq[De], val cols: IndexedSeq[De],
      rows: Int => Array[Double], threshold: Double) {
    private val pos = new Array[Array[Boolean]](docs.size)
    /** Labels thresholded so far: `cols.size` per anchored doc. */
    var thresholded = 0L

    def row(d: Int): Array[Boolean] = {
      if (pos(d) == null) {
        val r = rows(d)
        require(r.length == cols.size, s"label row ${docs(d).id} has ${r.length} entries for ${cols.size} columns")
        val p = new Array[Boolean](r.length)
        var c = 0
        while (c < r.length) { p(c) = r(c) >= threshold; c += 1 }
        pos(d) = p
        thresholded += r.length
      }
      pos(d)
    }
  }

  /** Column embeddings stamped with the model version they were computed at. */
  private[joint] final class EmbedCache(val model: Mlp, cols: IndexedSeq[De]) {
    private val emb = new Array[Array[Double]](cols.size)
    private val at = Array.fill(cols.size)(-1L)
    /** Forward passes run so far, and the `embedAll` calls that ran them. */
    var passes, calls = 0L

    /** The current embeddings of `anchor` and of the columns `idx`; only
      * columns embedded under older weights are recomputed.
      */
    def embed(anchor: Array[Double], idx: Array[Int]): (Array[Double], Array[Array[Double]]) = {
      val v = model.version
      val stale = idx.filter(at(_) != v)
      val out = model.embedAll(anchor +: stale.toIndexedSeq.map(cols(_).enc))
      passes += out.length
      calls += 1
      for (k <- stale.indices) { emb(stale(k)) = out(k + 1); at(stale(k)) = v }
      (out(0), idx.map(emb))
    }
  }

  /** Time and counts one training run accumulates into its `Stats`. */
  private final class Tally { var relNs, forwardNs, stepNs, noPos, noNeg, hardNegs = 0L }

  private def mean(xs: Seq[Array[Double]]): Array[Double] = {
    val out = new Array[Double](xs.head.length)
    for (x <- xs) {
      var i = 0
      while (i < out.length) { out(i) += x(i); i += 1 }
    }
    var i = 0
    while (i < out.length) { out(i) /= xs.size; i += 1 }
    out
  }
}
