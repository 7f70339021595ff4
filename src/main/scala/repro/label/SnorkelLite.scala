package repro.label

import scala.util.Random

/** Snorkel-substitute weak-supervision models (§4.1).
  *
  * The *generative* model is a binary Dawid–Skene EM: it estimates each
  * labeling function's accuracy purely from the agreements/disagreements of
  * the vote matrix and produces a probabilistic label per (doc, col) pair by
  * accuracy-weighted vote combination. The *discriminator* is a logistic
  * regression over the pair's underlying similarity features, trained on the
  * probabilistic labels so the final relatedness degree generalises beyond
  * the pairs the LFs happened to label.
  */
object SnorkelLite {

  /** EM iterations of `generative`, and its starting prior P(related). */
  private val EmIters = 30
  private val InitialPrior = 0.3

  /** SGD passes over the data and learning rate of `trainDiscriminator`. */
  private val DiscEpochs = 60
  private val DiscLr = 0.5

  final case class GenerativeResult(
      accuracies: Seq[Double], // balanced accuracy (sensitivity + specificity)/2
      posteriors: Array[Double], // P(related | votes) of each vote vector, in input order
      lastMaxChange: Double, // largest |change| of one posterior in the last EM iteration
  )

  /** Two-coin Dawid–Skene EM over LF parameters and latent pair labels.
    *
    * The LFs here are *top-k index probes*: a 1-vote is strong positive
    * evidence but a 0-vote is weak (the probe is bounded by k), so each LF is
    * modelled with a sensitivity r = P(vote=1 | related) and a false-positive
    * rate q = P(vote=1 | unrelated) rather than one symmetric accuracy — a
    * symmetric model degenerates by explaining single-vote pairs as negatives
    * with an "anti-correlated" LF. EM starts from a prior of `InitialPrior`
    * and runs a fixed `EmIters` iterations;
    * `lastMaxChange` reports how far the last one still moved a posterior.
    * `votes(i)` is pair `i`'s vote vector, one 0/1 vote per LF; the
    * posteriors come back in the same order.
    */
  def generative(votes: Seq[Seq[Int]]): GenerativeResult = {
    if (votes.isEmpty) return GenerativeResult(Seq.empty, Array.empty, 0.0)
    val nLf = votes.head.size
    val sens = Array.fill(nLf)(0.6)
    val fpr = Array.fill(nLf)(0.05)
    var prior = InitialPrior
    var probs = Array.fill(votes.size)(0.5)
    var lastMaxChange = 0.0

    for (_ <- 0 until EmIters) {
      // E-step: posterior P(y=1 | votes) under the two-coin likelihood.
      val before = probs
      probs = votes.map { p =>
        var l1 = math.log(math.max(prior, 1e-9))
        var l0 = math.log(math.max(1 - prior, 1e-9))
        for (j <- 0 until nLf) {
          val v = p(j)
          l1 += math.log(if (v == 1) sens(j) else 1 - sens(j))
          l0 += math.log(if (v == 1) fpr(j) else 1 - fpr(j))
        }
        val mx = math.max(l1, l0)
        val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
        e1 / (e1 + e0)
      }.toArray
      lastMaxChange = probs.indices.foldLeft(0.0)((m, i) => math.max(m, math.abs(probs(i) - before(i))))
      // M-step: per-LF sensitivity and false-positive rate.
      val posMass = probs.sum
      val negMass = probs.length - posMass
      for (j <- 0 until nLf) {
        val posVotes = votes.zip(probs).collect { case (p, q) if p(j) == 1 => q }.sum
        val negVotes = votes.zip(probs).collect { case (p, q) if p(j) == 1 => 1 - q }.sum
        sens(j) = clamp(posVotes / math.max(posMass, 1e-9), 0.1, 0.95)
        fpr(j) = clamp(negVotes / math.max(negMass, 1e-9), 0.01, 0.5)
      }
      prior = clamp(posMass / probs.length, 0.02, 0.98)
    }
    val balanced = (0 until nLf).map(j => (sens(j) + (1 - fpr(j))) / 2.0)
    GenerativeResult(balanced, probs, lastMaxChange)
  }

  /** Logistic-regression discriminator trained by SGD on probabilistic
    * labels (standard cross-entropy, §4.1): `DiscEpochs` shuffled passes at
    * rate `DiscLr`. Features are the pair's raw similarity scores; returns
    * the weight vector (bias last).
    */
  def trainDiscriminator(data: Seq[(Array[Double], Double)], seed: Long = 17L): Array[Double] = {
    require(data.nonEmpty, "no training data")
    val dim = data.head._1.length
    val w = new Array[Double](dim + 1)
    val rnd = new Random(seed)
    val idx = data.indices.toArray
    for (_ <- 0 until DiscEpochs) {
      val order = rnd.shuffle(idx.toSeq)
      for (i <- order) {
        val (x, y) = data(i)
        val p = predict(w, x)
        val g = p - y
        var j = 0
        while (j < dim) { w(j) -= DiscLr * g * x(j); j += 1 }
        w(dim) -= DiscLr * g
      }
    }
    w
  }

  /** Sigmoid score of the discriminator for a feature vector. */
  def predict(w: Array[Double], x: Array[Double]): Double = {
    var z = w(w.length - 1)
    var j = 0
    while (j < x.length) { z += w(j) * x(j); j += 1 }
    1.0 / (1.0 + math.exp(-z))
  }

  private def clamp(x: Double, lo: Double, hi: Double): Double = math.max(lo, math.min(hi, x))
}
