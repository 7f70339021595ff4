package repro.embed

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Deterministic subword word embeddings — the fasttext [16] substitute.
  *
  * fasttext represents a word as the sum of vectors of its character n-grams;
  * we reproduce exactly that mechanism with hash-derived pseudo-random n-gram
  * vectors (no trained weights), so words sharing roots ("pemetrexed_12",
  * "pemetrexed_47") land nearby in the space while unrelated words are
  * near-orthogonal. That is the property CMDL's semantic measures and the
  * synthetic lake generator rely on. DE-level vectors are the mean pooling of
  * word vectors (§3, "Semantic Similarity via Solo Embeddings").
  */
object WordVectors {

  val Dim = 100

  private val Gamma = 0x9e3779b97f4a7c15L
  private val TwoToMinus52 = java.lang.Math.scalb(1f, -52)

  /** Element `i` is output `i + 1` of the splitmix64 stream seeded by the
    * n-gram's hash, its state `z0 + (i + 1)·γ` computed on its own, so no
    * state is carried from one element to the next. The top 53 bits `m` of
    * the mix give `m.toFloat · 2⁻⁵² − 1`: the Long→Float conversion rounds
    * once to nearest and a power-of-two scale is exact, so this equals
    * `(m / 2⁵³).toFloat · 2 − 1` computed through a Double (`SeedWordVectors`)
    * bit for bit.
    */
  private def ngramVector(ngram: String, dim: Int): Array[Float] = {
    val out = new Array[Float](dim)
    val z0 = (MurmurHash3.stringHash(ngram, 0x2545f491).toLong << 32) |
      (MurmurHash3.stringHash(ngram, 0x1b873593) & 0xffffffffL)
    var i = 0
    while (i < dim) {
      var x = z0 + (i + 1) * Gamma
      x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
      x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
      x = x ^ (x >>> 31)
      out(i) = (x >>> 11).toFloat * TwoToMinus52 - 1f
      i += 1
    }
    out
  }

  /** Unit-norm vector for one word. */
  def wordVector(word: String, dim: Int = Dim): Array[Float] =
    wordVectorOf(word, dim, ngramVector(_, dim))

  /** Sums the vectors `gram` gives for the word's character 3- to 5-grams
    * (of the word padded with `<` and `>`), then for the whole padded word,
    * as fasttext does — always in that order.
    */
  private def wordVectorOf(word: String, dim: Int, gram: String => Array[Float]): Array[Float] = {
    val acc = new Array[Float](dim)
    def add(g: String): Unit = {
      val v = gram(g)
      var i = 0
      while (i < dim) { acc(i) += v(i); i += 1 }
    }
    val padded = "<" + word.toLowerCase + ">"
    for (n <- 3 to 5; from <- 0 to padded.length - n) add(padded.substring(from, from + n))
    add(padded)
    normalize(acc)
  }

  /** Mean pooling over word vectors (unbiased set summary [43]), unit-norm.
    *
    * N-gram vectors are memoised for the duration of one call only: a
    * column's values share most of their n-grams (`mlms3key17`,
    * `mlms3key18`, …), so each is generated once per call, and the memo is
    * garbage when the call returns. Every word still sums its n-gram vectors
    * in the same order, so the result equals pooling `wordVector` bit for
    * bit.
    */
  def meanPool(words: Iterable[String], dim: Int = Dim): Array[Float] = {
    val grams = mutable.HashMap.empty[String, Array[Float]]
    val gram = (g: String) => grams.getOrElseUpdate(g, ngramVector(g, dim))
    val acc = new Array[Float](dim)
    var n = 0
    for (w <- words) {
      val v = wordVectorOf(w, dim, gram)
      var i = 0
      while (i < dim) { acc(i) += v(i); i += 1 }
      n += 1
    }
    if (n == 0) acc
    else {
      var i = 0
      while (i < dim) { acc(i) /= n; i += 1 }
      normalize(acc)
    }
  }

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, "dim mismatch")
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    cosineOf(dot, na, nb)
  }

  /** The cosine from a dot product and the two sums of squares: 0 when either
    * vector is all zeros (a column with no tokens pools to zero).
    */
  def cosineOf(dot: Double, aa: Double, bb: Double): Double =
    if (aa == 0.0 || bb == 0.0) 0.0 else dot / math.sqrt(aa * bb)

  def normalize(v: Array[Float]): Array[Float] = {
    var n = 0.0; var i = 0
    while (i < v.length) { n += v(i) * v(i); i += 1 }
    val norm = math.sqrt(n)
    if (norm > 0) { i = 0; while (i < v.length) { v(i) = (v(i) / norm).toFloat; i += 1 } }
    v
  }
}
