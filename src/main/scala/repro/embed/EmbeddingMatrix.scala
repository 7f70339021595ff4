package repro.embed

/** Equal-length embeddings stored row after row in one flat `Array[Float]`,
  * with each row's sum of squares computed once: the kernel behind every
  * scan on the lookup path (Annoy's splits and re-rank, the Doc→Table scan).
  *
  * `dots` scores four rows per pass over the dimensions. Each row keeps its
  * own Double accumulator and adds its Float products in index order, as
  * `WordVectors.cosine` does, and the score is `dot / sqrt(qq * rr)` with
  * the same zero-norm rule, so every score equals `WordVectors.cosine` bit
  * for bit. The four independent add chains are the only parallelism the JIT
  * may use: it must not reorder the floating-point adds within one chain.
  */
final class EmbeddingMatrix(rows: IndexedSeq[Array[Float]]) {
  import EmbeddingMatrix.dot

  /** Number of rows. */
  val size: Int = rows.size

  /** Length of every row (0 for an empty matrix). */
  val dim: Int = if (rows.isEmpty) 0 else rows.head.length
  require(rows.forall(_.length == dim), "dim mismatch")

  private[embed] val data: Array[Float] = {
    val out = new Array[Float](size * dim)
    var r = 0
    while (r < size) { System.arraycopy(rows(r), 0, out, r * dim, dim); r += 1 }
    out
  }

  private val rowSumSq: Array[Double] = Array.tabulate(size)(r => dot(data, r * dim, data, r * dim, dim))

  /** `out(i) = WordVectors.cosine(q, r)` for every `i < n`, where `r` is row `ids(i)`. */
  def cosines(q: Array[Float], ids: Array[Int], n: Int, out: Array[Double]): Unit = {
    if (n == 0) return
    dots(q, ids, n, out)
    val qq = dot(q, 0, q, 0, dim)
    var i = 0
    while (i < n) { out(i) = WordVectors.cosineOf(out(i), qq, rowSumSq(ids(i))); i += 1 }
  }

  /** `out(i)` = the sum of the Float products of `q` and row `ids(i)`, added
    * in index order, for every `i < n`: four rows per pass.
    */
  def dots(q: Array[Float], ids: Array[Int], n: Int, out: Array[Double]): Unit = {
    if (n == 0) return
    require(q.length == dim, "dim mismatch")
    val m = data
    val d = dim
    var i = 0
    while (i + 3 < n) {
      val o0 = ids(i) * d; val o1 = ids(i + 1) * d; val o2 = ids(i + 2) * d; val o3 = ids(i + 3) * d
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var j = 0
      while (j < d) {
        val x = q(j)
        s0 += x * m(o0 + j); s1 += x * m(o1 + j); s2 += x * m(o2 + j); s3 += x * m(o3 + j)
        j += 1
      }
      out(i) = s0; out(i + 1) = s1; out(i + 2) = s2; out(i + 3) = s3
      i += 4
    }
    while (i < n) { out(i) = dot(q, 0, m, ids(i) * d, d); i += 1 }
  }
}

object EmbeddingMatrix {

  /** Sum of the Float products `a(ai + i) * b(bi + i)` for `i < len`, added
    * in index order as Doubles.
    */
  def dot(a: Array[Float], ai: Int, b: Array[Float], bi: Int, len: Int): Double = {
    var s = 0.0; var i = 0
    while (i < len) { s += a(ai + i) * b(bi + i); i += 1 }
    s
  }

  /** Positions of the `k` best of `scores(0 until n)`, best first, ordered as
    * `sortBy(i => (-scores(i), keys(i)))` orders them. Keys must be distinct,
    * so the order is total.
    */
  def topK(scores: Array[Double], keys: Array[Int], n: Int, k: Int): Array[Int] = {
    val sel = new Array[Int](math.max(0, math.min(k, n)))
    def before(a: Int, b: Int): Boolean = {
      val c = java.lang.Double.compare(-scores(a), -scores(b))
      c < 0 || (c == 0 && keys(a) < keys(b))
    }
    var filled = 0
    var i = 0
    while (i < n && sel.length > 0) {
      if (filled < sel.length || before(i, sel(filled - 1))) {
        var p = if (filled < sel.length) { filled += 1; filled - 1 } else sel.length - 1
        while (p > 0 && before(i, sel(p - 1))) { sel(p) = sel(p - 1); p -= 1 }
        sel(p) = i
      }
      i += 1
    }
    sel
  }
}
