package repro.label

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.{SparkSpec, TestFixtures}

class SnorkelLiteSpec extends AnyFunSuite {
  import SnorkelLite._

  // Synthetic vote matrix: 3 good LFs (90% accurate), 1 bad LF (30%).
  private def makePairs(n: Int, seed: Long): (Seq[LabeledPair], Seq[Int]) = {
    val rnd = new Random(seed)
    val truth = Seq.fill(n)(if (rnd.nextDouble() < 0.4) 1 else 0)
    val pairs = truth.zipWithIndex.map { case (y, i) =>
      def vote(acc: Double): Int = if (rnd.nextDouble() < acc) y else 1 - y
      LabeledPair(s"d$i", s"c$i", Seq(vote(0.9), vote(0.9), vote(0.85), vote(0.3)))
    }
    (pairs, truth)
  }

  test("generative EM recovers which LFs are accurate") {
    val (pairs, _) = makePairs(400, 3)
    val res = generative(pairs.filter(_.votes.sum > 0))
    assert(res.accuracies(0) > res.accuracies(3))
    assert(res.accuracies(1) > res.accuracies(3))
  }

  test("generative probabilistic labels correlate with ground truth") {
    val (pairs, truth) = makePairs(400, 5)
    val kept = pairs.zip(truth).filter(_._1.votes.sum > 0)
    val res = generative(kept.map(_._1))
    val posMean = kept.filter(_._2 == 1).map(p => res.probs((p._1.doc, p._1.col))).sum /
      math.max(1, kept.count(_._2 == 1))
    val negMean = kept.filter(_._2 == 0).map(p => res.probs((p._1.doc, p._1.col))).sum /
      math.max(1, kept.count(_._2 == 0))
    assert(posMean > negMean + 0.2)
  }

  test("generative on empty input returns empty result") {
    val res = generative(Seq.empty)
    assert(res.accuracies.isEmpty && res.probs.isEmpty)
  }

  test("discriminator learns a separable relation") {
    val rnd = new Random(11)
    val data = (1 to 300).map { _ =>
      val y = rnd.nextBoolean()
      val x = Array(
        if (y) 0.7 + rnd.nextDouble() * 0.3 else rnd.nextDouble() * 0.3,
        rnd.nextDouble())
      (x, if (y) 0.95 else 0.05)
    }
    val w = trainDiscriminator(data)
    val correct = data.count { case (x, y) => (predict(w, x) >= 0.5) == (y > 0.5) }
    assert(correct.toDouble / data.size > 0.9)
  }

  test("discriminator predictions lie in (0,1)") {
    val w = trainDiscriminator(Seq((Array(1.0), 1.0), (Array(0.0), 0.0)))
    val p = predict(w, Array(0.5))
    assert(p > 0.0 && p < 1.0)
  }

  test("discriminator rejects empty training data") {
    intercept[IllegalArgumentException] { trainDiscriminator(Seq.empty) }
  }
}

class LabelingFunctionsSpec extends SparkSpec {

  private lazy val cmdl = TestFixtures.cmdlPharma
  private lazy val lfs = cmdl.lfs

  private lazy val linkedDoc = {
    val bench = TestFixtures.pharma.docBenches.head
    val docId = bench.docColumns.keys.toSeq.sorted.head
    (cmdl.docById(docId), bench.docColumns(docId))
  }

  test("four labeling functions are exposed") {
    assert(lfs.names === Seq("semantic", "syntactic", "content", "metadata"))
  }

  test("probe returns a result per labeling function") {
    val probe = lfs.probe(linkedDoc._1)
    assert(probe.keySet === lfs.names.toSet)
  }

  test("probe results are bounded by k") {
    val probe = lfs.probe(linkedDoc._1)
    assert(probe.values.forall(_.size <= lfs.k))
  }

  test("at least one LF votes for a truly linked column") {
    val (doc, gtCols) = linkedDoc
    val probe = lfs.probe(doc)
    val voted = gtCols.map(_.render).exists(ref => probe.values.exists(_.contains(ref)))
    assert(voted, s"no LF voted for any of $gtCols")
  }

  test("votes vector aligns with LF names") {
    val (doc, gtCols) = linkedDoc
    val probe = lfs.probe(doc)
    val ref = gtCols.head.render
    val votes = lfs.votes(probe, ref)
    assert(votes.size === 4)
    assert(votes.zip(lfs.names).forall { case (v, n) => (v == 1) == probe(n).contains(ref) })
  }

  test("text-searchable columns only are indexed") {
    assert(lfs.textCols.forall(_.hasTag(repro.profile.Tags.TextSearch)))
  }
}
