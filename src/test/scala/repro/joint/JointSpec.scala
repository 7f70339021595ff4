package repro.joint

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

import repro.{SparkSpec, TestFixtures}
import repro.embed.WordVectors
import repro.lake.LakeGen

class MlpSpec extends AnyFunSuite {

  test("forward output has the configured dimensionality") {
    val m = new Mlp(inDim = 10, hiddenDim = 8, outDim = 4)
    assert(m.embed(Array.fill(10)(0.1)).length === 4)
  }

  test("forward is deterministic for a fixed seed") {
    val x = Array.fill(200)(0.3)
    val a = new Mlp(seed = 9).embed(x)
    val b = new Mlp(seed = 9).embed(x)
    assert(a.toSeq === b.toSeq)
  }

  test("dist2 is squared euclidean") {
    val m = new Mlp(2, 2, 2)
    assert(m.dist2(Array(0.0, 0.0), Array(3.0, 4.0)) === 25.0)
  }

  /** The triplet loss of Eq. 1 under `m`'s current weights. */
  private def loss(m: Mlp, a: Array[Double], p: Array[Double], n: Array[Double], margin: Double): Double = {
    val (fa, fp, fn) = (m.embed(a), m.embed(p), m.embed(n))
    math.max(0.0, margin + m.dist2(fa, fp) - m.dist2(fa, fn))
  }

  test("tripletStep reduces the loss of a violated triplet") {
    val m = new Mlp(6, 8, 3, seed = 2)
    val rnd = new Random(4)
    val a = Array.fill(6)(rnd.nextDouble())
    val p = Array.fill(6)(rnd.nextDouble())
    val n = a.map(_ + 0.01) // negative nearly identical to anchor: violated
    val before = loss(m, a, p, n, 0.2)
    var i = 0
    while (i < 60) { m.tripletStep(a, p, n, 0.2, 0.01); i += 1 }
    val after = loss(m, a, p, n, 0.2)
    assert(after < before)
  }

  test("tripletStep returns zero and leaves weights alone on satisfied triplets") {
    val m = new Mlp(4, 4, 2, seed = 3)
    val a = Array(1.0, 1.0, 0.0, 0.0)
    val n = Array(-9.0, 9.0, -9.0, 9.0)
    // warm up until satisfied, then verify a no-op step
    var guard = 0
    while (loss(m, a, a, n, 0.05) > 0 && guard < 200) { m.tripletStep(a, a, n, 0.05, 0.05); guard += 1 }
    if (loss(m, a, a, n, 0.05) == 0.0) {
      val w = m.w1.map(_.clone())
      assert(m.tripletStep(a, a, n, 0.05, 0.05) === 0.0)
      assert(m.w1.zip(w).forall { case (r1, r2) => r1.sameElements(r2) })
    }
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("embedAll equals embed bit for bit") {
    val prop = Prop.forAll(Gen.choose(0, 9), Gen.choose(1, 13), Gen.choose(1, 13), Gen.choose(1, 13),
        Gen.choose(0L, 1000L)) { (n, in, hidden, out, seed) =>
      val m = new Mlp(in, hidden, out, seed)
      val rnd = new Random(seed)
      val xs = IndexedSeq.fill(n)(Array.fill(in)(rnd.nextGaussian()))
      val all = m.embedAll(xs)
      all.length == n && xs.indices.forall(i => bits(all(i)) == bits(m.embed(xs(i))))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res)
  }

  test("embedAll equals embed bit for bit at every chunk boundary, the weights written between calls") {
    val sizes = 0 to 4 * Mlp.MinLanes + 3
    val prop = Prop.forAll(Gen.choose(0L, 1000L)) { seed =>
      val m = new Mlp(seed = seed)
      val rnd = new Random(seed)
      def sample() = Array.fill(m.inDim)(rnd.nextGaussian())
      sizes.forall { n =>
        val xs = IndexedSeq.fill(n)(sample())
        val all = m.embedAll(xs)
        val same = all.length == n && xs.indices.forall(i => bits(all(i)) == bits(m.embed(xs(i))))
        // a violated triplet (the negative is the anchor) writes every weight before the next call
        val a = sample()
        val v = m.version
        same && m.tripletStep(a, sample(), a, margin = 0.2, lr = 0.02) > 0.0 && m.version > v
      }
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(20), prop)
    assert(res.passed, res)
  }

  test("Mlp equals the output-major SeedMlp bit for bit through random interleavings of embed, embedAll and " +
      "tripletStep") {
    val lanes = 0 to 4 * Mlp.MinLanes + 3
    var embedAllCalls, zeroLoss, posLoss = 0
    // dimensions of 1, below and between multiples of 4 (the tail of the four-lane tile) and the defaults
    val dim = Gen.oneOf(1, 2, 3, 5, 6, 7, 9, 13, 100, 150, 200)
    val prop = Prop.forAll(dim, dim, dim, Gen.choose(0L, 1000L)) { (in, hidden, out, seed) =>
      val m = new Mlp(in, hidden, out, seed)
      val o = new SeedMlp(in, hidden, out, seed)
      val rnd = new Random(seed)
      def sample() = Array.fill(in)(rnd.nextGaussian())
      def sameState() = m.version == o.version && bits(m.b1) == bits(o.b1) && bits(m.b2) == bits(o.b2) &&
        m.w1.map(bits).toSeq == o.w1.map(bits).toSeq && m.w2.map(bits).toSeq == o.w2.map(bits).toSeq
      sameState() && (1 to 12).forall { _ =>
        val sameOut = rnd.nextInt(3) match {
          case 0 =>
            val x = sample()
            bits(m.embed(x)) == bits(o.embed(x))
          case 1 =>
            // the calls step through every lane count in turn
            val xs = IndexedSeq.fill(lanes(embedAllCalls % lanes.size))(sample())
            embedAllCalls += 1
            val (got, want) = (m.embedAll(xs), o.embedAll(xs))
            got.length == xs.size && got.indices.forall(s => bits(got(s)) == bits(want(s)))
          case _ =>
            val a = sample()
            // the anchor as negative gives a positive loss at margin 0.2, as positive a zero loss at margin 0
            val (p, n, margin) = rnd.nextInt(3) match {
              case 0 => (sample(), a, 0.2)
              case 1 => (a, sample(), 0.0)
              case _ => (sample(), sample(), rnd.nextDouble())
            }
            val lr = 0.001 + 0.05 * rnd.nextDouble()
            val (got, want) = (m.tripletStep(a, p, n, margin, lr), o.tripletStep(a, p, n, margin, lr))
            if (got > 0) posLoss += 1 else zeroLoss += 1
            java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)
        }
        sameOut && sameState()
      }
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res)
    assert(embedAllCalls >= lanes.size, embedAllCalls)
    assert(zeroLoss > 0 && posLoss > 0, (zeroLoss, posLoss))
  }

  test("version changes exactly when a step writes the weights") {
    val m = new Mlp(4, 4, 2, seed = 3)
    val a = Array(1.0, 1.0, 0.0, 0.0)
    val v0 = m.version
    assert(m.tripletStep(a, a, Array(-9.0, 9.0, -9.0, 9.0), margin = 0.0, lr = 0.05) === 0.0)
    assert(m.version === v0)
    assert(m.tripletStep(a, a.map(_ + 1), a, margin = 0.2, lr = 0.05) > 0.0)
    assert(m.version > v0)
  }
}

class TripletTrainingSpec extends AnyFunSuite {
  import TripletTraining._
  import TripletTrainingSpec.{rowsOf, world}

  test("encode concatenates metadata and content embeddings") {
    val m = Array.fill(3)(1f); val c = Array.fill(2)(2f)
    assert(encode(m, c).toSeq === Seq(1.0, 1.0, 1.0, 2.0, 2.0))
  }

  test("training converges and loss decreases") {
    val (docs, cols, rel) = world(1)
    val res = train(docs, cols, rowsOf(docs, cols, rel), Config(maxEpochs = 60, batchFrac = 0.5, seed = 2))
    assert(res.lossHistory.nonEmpty)
    assert(res.lossHistory.last <= res.lossHistory.max)
  }

  test("after training, related pairs are closer than unrelated pairs") {
    val (docs, cols, rel) = world(2)
    val res = train(docs, cols, rowsOf(docs, cols, rel), Config(maxEpochs = 80, batchFrac = 0.5, seed = 3))
    val emb = applyModel(res.model, docs ++ cols)
    def d(a: String, b: String): Double = {
      val (x, y) = (emb(a), emb(b))
      x.zip(y).map { case (u, v) => (u - v) * (u - v) }.sum
    }
    val related = d("docA1", "colA1")
    val unrelated = d("docA1", "colB1")
    assert(related < unrelated)
  }

  test("hard sampling emits exactly one triplet per eligible anchor") {
    val (docs, cols, rel) = world(3)
    val m = new Mlp(seed = 1)
    val triplets = tripletsFor(m, docs.head, cols, (a, b) => rel(a, b), Config())
    assert(triplets.size === 1)
  }

  test("anchors without both positive and negative samples are ignored") {
    val (docs, cols, _) = world(5)
    val m = new Mlp(seed = 1)
    assert(tripletsFor(m, docs.head, cols, (_, _) => 0.9, Config()).isEmpty)
    assert(tripletsFor(m, docs.head, cols, (_, _) => 0.1, Config()).isEmpty)
  }

  test("training requires both modalities") {
    intercept[IllegalArgumentException] {
      train(Seq.empty, Seq(De("c", Array(1.0))), _ => Array(0.5))
    }
  }

  test("train rejects bad configurations with a clear message") {
    val (docs, cols, rel) = world(8)
    def reason(cfg: Config) = intercept[IllegalArgumentException](train(docs, cols, rowsOf(docs, cols, rel), cfg))
      .getMessage
    assert(reason(Config(batchFrac = 0.0)).contains("batchFrac"))
    assert(reason(Config(batchFrac = 1.5)).contains("batchFrac"))
    assert(reason(Config(batchFrac = Double.NaN)).contains("batchFrac"))
    assert(reason(Config(lr = 0.0)).contains("lr"))
    assert(reason(Config(margin = -0.1)).contains("margin"))
    assert(reason(Config(maxEpochs = -1)).contains("maxEpochs"))
    assert(train(docs, cols, rowsOf(docs, cols, rel), Config(maxEpochs = 0)).epochs === 0)
  }

  test("every doc and column lands in exactly one batch pair per epoch") {
    val rnd = new Random(9)
    for (_ <- 1 to 5) {
      val pairs = miniBatches(14, 40, 13, rnd) // 14 docs cut by 2 give 7 groups, 40 cols by 4 give 10
      assert(pairs.flatMap(_._1).sorted === (0 until 14))
      assert(pairs.flatMap(_._2).sorted === (0 until 40))
      assert(pairs.forall { case (d, c) => d.nonEmpty && c.nonEmpty })
    }
    // the same through train: one epoch anchors every doc once, against the columns of one batch
    val docs = (1 to 14).map(i => De(s"d$i", Array.fill(200)(i * 0.01)))
    val cols = (1 to 40).map(i => De(s"c$i", Array.fill(200)(-i * 0.01)))
    val cfg = Config(maxEpochs = 1)
    val none = train(docs, cols, _ => Array.fill(cols.size)(0.1), cfg)
    assert(none.stats.noPosAnchors === docs.size)
    // column c alone positive for every doc: exactly the docs whose batch holds c find a positive
    val metBy = miniBatches(docs.size, cols.size, math.ceil(1.0 / cfg.batchFrac).toInt, new Random(cfg.seed))
      .flatMap { case (d, c) => c.map(_ -> d.length) }.toMap
    for (c <- new Random(9).shuffle(cols.indices.toVector).take(6)) {
      val row = Array.tabulate(cols.size)(i => if (i == c) 0.9 else 0.1)
      val one = train(docs, cols, _ => row, cfg)
      assert(docs.size - one.stats.noPosAnchors === metBy(c), s"column $c")
    }
  }

  test("batches are cut as before wherever both sides split into the same count") {
    def seedBatches(n: Int, nBatches: Int, rnd: Random) = {
      val v = rnd.shuffle(Vector.range(0, n))
      v.grouped(math.max(1, math.ceil(v.size.toDouble / nBatches).toInt)).toVector
    }
    for ((nDocs, nCols) <- Seq((240, 1039), (16, 16), (50, 300))) {
      val (r1, r2) = (new Random(3), new Random(3))
      for (_ <- 1 to 3) {
        val now = miniBatches(nDocs, nCols, 13, r1).map { case (d, c) => (d.toSeq, c.toSeq) }
        val db = seedBatches(nDocs, 13, r2); val cb = seedBatches(nCols, 13, r2)
        assert(db.size === cb.size)
        assert(now === db.zip(cb))
      }
    }
  }

  test("each document's label row is asked for at most once") {
    val (docs, cols, rel) = world(9)
    val asked = mutable.Map.empty[Int, Int].withDefaultValue(0)
    val rows = rowsOf(docs, cols, rel)
    val res = train(docs, cols, d => { asked(d) += 1; rows(d) },
      Config(maxEpochs = 30, batchFrac = 0.5, convergenceTol = 0.0))
    assert(res.epochs === 30)
    assert(asked.keySet === docs.indices.toSet) // every doc was anchored
    assert(asked.values.forall(_ == 1), asked.filter(_._2 > 1))
    // relCalls counts the labels thresholded: one whole row per anchored doc
    assert(res.stats.relCalls === docs.size.toLong * cols.size)
  }

  test("a label row of the wrong length fails, naming the document") {
    val (docs, cols, _) = world(12)
    val e = intercept[IllegalArgumentException](train(docs, cols, _ => Array(0.9), Config()))
    assert(e.getMessage.contains(s"has 1 entries for ${cols.size} columns"), e.getMessage)
  }

  test("cached embeddings are recomputed after a weight-changing step and reused after a zero-loss step") {
    val (docs, cols, _) = world(10)
    val m = new Mlp(seed = 1)
    val cache = new EmbedCache(m, cols)
    val idx = Array(0, 3, 9)
    def check(e: (Array[Double], Array[Array[Double]])) = {
      assert(e._1.sameElements(m.embed(docs.head.enc)))
      idx.indices.foreach(k => assert(e._2(k).sameElements(m.embed(cols(idx(k)).enc))))
    }
    check(cache.embed(docs.head.enc, idx))
    assert(cache.passes === 1 + idx.length)
    check(cache.embed(docs.head.enc, idx))
    assert(cache.passes === 2 + idx.length) // only the anchor is recomputed
    val (a, far) = (docs.head.enc, docs.head.enc.map(_ => 9.0))
    assert(m.tripletStep(a, a, far, margin = 0.0, lr = 0.02) === 0.0)
    check(cache.embed(docs.head.enc, idx))
    assert(cache.passes === 3 + idx.length)
    assert(m.tripletStep(a, cols(1).enc, a, margin = 0.2, lr = 0.02) > 0.0)
    check(cache.embed(docs.head.enc, idx))
    assert(cache.passes === 4 + 2 * idx.length)
  }

  test("training matches the per-triplet reference loop bit for bit on the toy world") {
    val (docs, cols, rel) = world(11)
    for (cfg <- Seq(Config(maxEpochs = 40, batchFrac = 0.5, seed = 2), Config(maxEpochs = 40, batchFrac = 0.25))) {
      val res = train(docs, cols, rowsOf(docs, cols, rel), cfg)
      assert(res.stats.steps > 0)
      ReferenceLoop.assertSame(ReferenceLoop.train(docs, cols, rel, cfg), res)
    }
  }
}

object TripletTrainingSpec {
  import TripletTraining._

  /** Tiny two-topic world: docs/cols of topic A are related, topic B not. */
  def world(seed: Int) = {
    def de(id: String, word: String) = {
      val emb = WordVectors.wordVector(word)
      De(id, encode(emb, emb))
    }
    val docs = (1 to 8).map(i => de(s"docA$i", s"topicalpha$i")) ++
      (1 to 8).map(i => de(s"docB$i", s"topicbeta$i"))
    val cols = (1 to 8).map(i => de(s"colA$i", s"topicalpha${i + 20}")) ++
      (1 to 8).map(i => de(s"colB$i", s"topicbeta${i + 20}"))
    val rel = (d: String, c: String) =>
      if (d.startsWith("docA") == c.startsWith("colA")) 0.9 else 0.1
    (docs, cols, rel)
  }

  /** `train`'s label rows from a pairwise `rel`: row `d` is doc `d`'s `rel` to every column, in order. */
  def rowsOf(docs: Seq[De], cols: Seq[De], rel: (String, String) => Double): Int => Array[Double] =
    d => cols.map(c => rel(docs(d).id, c.id)).toArray
}

/** The per-triplet training loop as first written: every anchor partitions
  * its batch through `rel` and re-embeds every negative. It is the reference
  * the optimised `TripletTraining.train` must match bit for bit, wherever the
  * doc and column sides split into the same number of batches (where they
  * do not, this loop drops batches).
  */
object ReferenceLoop {
  import TripletTraining._

  final case class Out(model: Mlp, epochs: Int, lossHistory: Vector[Double], triplets: Long)

  private def tripletsFor(model: Mlp, anchor: De, batchCols: Seq[De], rel: (String, String) => Double,
      cfg: Config): Seq[(Array[Double], Array[Double], Array[Double])] = {
    val (pos, neg) = batchCols.partition(c => rel(anchor.id, c.id) >= cfg.posThreshold)
    if (pos.isEmpty || neg.isEmpty) return Seq.empty
    val aEmb = model.embed(anchor.enc)
    val negDists = neg.map(nn => (nn, model.dist2(aEmb, model.embed(nn.enc))))
    val cutoff = negDists.map(_._2).sum / negDists.size
    val hard = negDists.filter(_._2 <= cutoff).map(_._1)
    if (hard.isEmpty) Seq.empty
    else Seq((anchor.enc, mean(pos.map(_.enc)), mean(hard.map(_.enc))))
  }

  def train(docs: Seq[De], cols: Seq[De], rel: (String, String) => Double, cfg: Config): Out = {
    val model = new Mlp(seed = cfg.seed)
    val nBatches = math.max(1, math.ceil(1.0 / cfg.batchFrac).toInt)
    val rnd = new Random(cfg.seed)
    val losses = mutable.ArrayBuffer.empty[Double]
    var triplets = 0L
    var epoch = 0
    var converged = false
    while (epoch < cfg.maxEpochs && !converged) {
      val docBatches = partition(rnd.shuffle(docs.toVector), nBatches)
      val colBatches = partition(rnd.shuffle(cols.toVector), nBatches)
      var epochLoss = 0.0
      var count = 0
      for ((db, cb) <- docBatches.zip(colBatches); d <- db) {
        for ((a, p, nn) <- tripletsFor(model, d, cb, rel, cfg)) {
          epochLoss += model.tripletStep(a, p, nn, cfg.margin, cfg.lr)
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
    Out(model, epoch, losses.toVector, triplets)
  }

  private def partition(v: Vector[De], nBatches: Int): Vector[Vector[De]] = {
    val per = math.max(1, math.ceil(v.size.toDouble / nBatches).toInt)
    v.grouped(per).toVector
  }

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

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  def assertSame(ref: Out, res: Result): Unit = {
    import org.scalatest.Assertions._
    assert(res.epochs === ref.epochs)
    assert(res.stats.steps === ref.triplets)
    assert(res.lossHistory.map(java.lang.Double.doubleToRawLongBits) ===
      ref.lossHistory.map(java.lang.Double.doubleToRawLongBits))
    assert(res.model.w1.map(bits).toSeq === ref.model.w1.map(bits).toSeq)
    assert(bits(res.model.b1) === bits(ref.model.b1))
    assert(res.model.w2.map(bits).toSeq === ref.model.w2.map(bits).toSeq)
    assert(bits(res.model.b2) === bits(ref.model.b2))
  }
}

class JointGoldenSpec extends SparkSpec {
  import TripletTraining._

  test("training matches the per-triplet reference loop bit for bit on ML-Open weak labels") {
    val cmdl = new repro.core.Cmdl(spark, LakeGen.mlOpen(0.1))
    val labels = cmdl.weakLabels()
    val rel = labels.rel(cmdl) _
    val docs = cmdl.docProfiles.map(d => De(d.id, encode(d.metaEmb, d.contentEmb)))
    val cols = cmdl.lfs.textCols.map(c => De(c.ref, encode(c.metaEmb, c.contentEmb)))
    // at this scale few pairs reach the default threshold; take the top decile as positives
    val rels = (for (d <- docs; c <- cols) yield rel(d.id, c.id)).sorted
    val cfg = Config(maxEpochs = 12, batchFrac = 0.2, posThreshold = rels(rels.size * 9 / 10))
    // the reference loop drops batches unless both sides split into the same count
    def groups(n: Int) = math.ceil(n / math.ceil(n / 5.0)).toInt
    assert(groups(docs.size) === groups(cols.size), s"${docs.size} docs, ${cols.size} columns")
    val rows = labels.relRows(cmdl)
    val res = train(docs, cols, rows(_), cfg)
    assert(res.stats.steps > 0, s"${docs.size} docs x ${cols.size} columns gave no triplets")
    ReferenceLoop.assertSame(ReferenceLoop.train(docs, cols, rel, cfg), res)
  }

  test("trainJoint run twice in one JVM gives the same loss and embeddings bit for bit") {
    val cmdl = TestFixtures.cmdlUkOpen
    val labels = cmdl.weakLabels()
    val cfg = Config(maxEpochs = 15, batchFrac = 0.5, convergenceTol = 0.0)
    def bitsOf(embs: Map[String, Array[Float]]) =
      embs.toSeq.sortBy(_._1).map { case (id, e) => id -> e.toSeq.map(java.lang.Float.floatToRawIntBits) }
    val Seq(first, second) = Seq.fill(2)(cmdl.trainJoint(labels, cfg))
    // on average a forward call holds enough lanes to be split across chunks
    assert(first.stats.forwardPasses >= 2 * Mlp.MinLanes * first.stats.forwardCalls, first.stats)
    assert(first.epochs === 15 && second.epochs === 15)
    assert(second.lossHistory.map(java.lang.Double.doubleToRawLongBits) ===
      first.lossHistory.map(java.lang.Double.doubleToRawLongBits))
    assert(bitsOf(second.docEmb) === bitsOf(first.docEmb))
    assert(bitsOf(second.colEmb) === bitsOf(first.colEmb))
  }

  test("trainJoint fails loudly on a lake without text-searchable columns") {
    val lake = TestFixtures.pharma
    val numeric = lake.copy(tables = lake.tables.map(t => t.copy(columns = t.columns.filter(_.dtype == "numeric")))
      .filter(_.columns.nonEmpty), docs = lake.docs.take(5))
    val cmdl = new repro.core.Cmdl(spark, numeric)
    assert(cmdl.lfs.textCols.isEmpty)
    val labels = cmdl.WeakLabels(Seq.fill(4)(0.5), Array.fill(5)(0.0), Seq.empty, Seq.empty, 0.0)
    val e = intercept[IllegalArgumentException](cmdl.trainJoint(labels))
    assert(e.getMessage.contains("5 documents") && e.getMessage.contains("0 text columns"), e.getMessage)
  }
}
