package repro.embed

import scala.util.hashing.MurmurHash3

/** The seed's word vectors and mean pooling, kept as a test oracle: every
  * n-gram vector is regenerated on every use. The memoising
  * `WordVectors.meanPool` must equal it bit for bit.
  */
object SeedWordVectors {

  private def ngramVector(ngram: String, dim: Int): Array[Float] = {
    val out = new Array[Float](dim)
    var z = (MurmurHash3.stringHash(ngram, 0x2545f491).toLong << 32) |
      (MurmurHash3.stringHash(ngram, 0x1b873593) & 0xffffffffL)
    var i = 0
    while (i < dim) {
      z += 0x9e3779b97f4a7c15L
      var x = z
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      x = x ^ (x >>> 31)
      out(i) = ((x >>> 11).toDouble / (1L << 53).toDouble).toFloat * 2f - 1f
      i += 1
    }
    out
  }

  private def ngrams(word: String, lo: Int = 3, hi: Int = 5): Seq[String] = {
    val padded = "<" + word + ">"
    val grams = for {
      n <- lo to hi
      if padded.length >= n
      g <- padded.sliding(n)
    } yield g
    grams :+ padded
  }

  def wordVector(word: String, dim: Int = WordVectors.Dim): Array[Float] = {
    val acc = new Array[Float](dim)
    for (g <- ngrams(word.toLowerCase)) {
      val v = ngramVector(g, dim)
      var i = 0
      while (i < dim) { acc(i) += v(i); i += 1 }
    }
    WordVectors.normalize(acc)
  }

  def meanPool(words: Iterable[String], dim: Int = WordVectors.Dim): Array[Float] = {
    val acc = new Array[Float](dim)
    var n = 0
    for (w <- words) {
      val v = wordVector(w, dim)
      var i = 0
      while (i < dim) { acc(i) += v(i); i += 1 }
      n += 1
    }
    if (n == 0) acc
    else {
      var i = 0
      while (i < dim) { acc(i) /= n; i += 1 }
      WordVectors.normalize(acc)
    }
  }
}
