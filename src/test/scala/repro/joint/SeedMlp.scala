package repro.joint

import java.util.concurrent.{ForkJoinPool, RecursiveAction}

import scala.util.Random

/** The output-major `Mlp` as it was before its weights were stored
  * input-major, kept as a test oracle: `w1(i)(j)` row-major, each unit summed
  * as a serial dot product in `forward`, and `embedAll` chunks that transpose
  * their inputs and sum four inputs per sweep (`embedLanes`, `accumulate`).
  * `Mlp` must give the same outputs, losses and weights bit for bit after
  * every call.
  */
final class SeedMlp(val inDim: Int = 200, val hiddenDim: Int = 150, val outDim: Int = 100, seed: Long = 5L) {

  private val rnd = new Random(seed)
  private def init(rows: Int, cols: Int): Array[Array[Double]] = {
    val s = math.sqrt(6.0 / (rows + cols))
    Array.fill(rows, cols)((rnd.nextDouble() * 2 - 1) * s)
  }
  val w1: Array[Array[Double]] = init(hiddenDim, inDim)
  val b1: Array[Double] = new Array[Double](hiddenDim)
  val w2: Array[Array[Double]] = init(outDim, hiddenDim)
  val b2: Array[Double] = new Array[Double](outDim)

  private var writes = 0L

  /** Number of weight writes (one per backprop pass) so far; unchanged while the weights are. */
  def version: Long = writes

  /** Forward pass: hidden activations and output embedding. */
  def forward(x: Array[Double]): (Array[Double], Array[Double]) = {
    val h = new Array[Double](hiddenDim)
    var i = 0
    while (i < hiddenDim) {
      var z = b1(i); val row = w1(i)
      var j = 0
      while (j < inDim) { z += row(j) * x(j); j += 1 }
      h(i) = math.tanh(z)
      i += 1
    }
    val out = new Array[Double](outDim)
    i = 0
    while (i < outDim) {
      var z = b2(i); val row = w2(i)
      var j = 0
      while (j < hiddenDim) { z += row(j) * h(j); j += 1 }
      out(i) = z
      i += 1
    }
    (h, out)
  }

  def embed(x: Array[Double]): Array[Double] = forward(x)._2

  /** `embed` of every sample. The lanes are cut into contiguous chunks that
    * run on the common `ForkJoinPool`, the caller running the first; a batch
    * of fewer than `2 * MinLanes` samples is one chunk, run in the caller.
    * No weight is written while chunks run, and a lane's result does not
    * depend on its chunk, so every output equals `embed` bit for bit.
    */
  def embedAll(xs: IndexedSeq[Array[Double]]): Array[Array[Double]] = {
    val n = xs.size
    val out = new Array[Array[Double]](n)
    val chunks = math.max(1, math.min(ForkJoinPool.getCommonPoolParallelism + 1, n / SeedMlp.MinLanes))
    def from(c: Int) = (c.toLong * n / chunks).toInt
    val rest = (1 until chunks).map(c =>
      new RecursiveAction { def compute(): Unit = embedLanes(xs, from(c), from(c + 1), out) }.fork())
    embedLanes(xs, 0, from(1), out)
    rest.foreach(_.join())
    out
  }

  /** `out(s) = embed(xs(s))` for lanes `lo until hi`, with one pass over each
    * weight row for all of them. The chunk's inputs are transposed, and each
    * lane is summed in the same order as in `forward`.
    */
  private def embedLanes(xs: IndexedSeq[Array[Double]], lo: Int, hi: Int, out: Array[Array[Double]]): Unit = {
    val n = hi - lo
    val xt = Array.ofDim[Double](inDim, n)
    var s = 0
    while (s < n) {
      val x = xs(lo + s); var j = 0
      while (j < inDim) { xt(j)(s) = x(j); j += 1 }
      s += 1
    }
    val ht = Array.ofDim[Double](hiddenDim, n)
    var i = 0
    while (i < hiddenDim) {
      val z = ht(i)
      java.util.Arrays.fill(z, b1(i))
      accumulate(z, w1(i), xt, n)
      s = 0
      while (s < n) { z(s) = math.tanh(z(s)); s += 1 }
      i += 1
    }
    s = 0
    while (s < n) { out(lo + s) = new Array[Double](outDim); s += 1 }
    val z = new Array[Double](n)
    i = 0
    while (i < outDim) {
      java.util.Arrays.fill(z, b2(i))
      accumulate(z, w2(i), ht, n)
      s = 0
      while (s < n) { out(lo + s)(i) = z(s); s += 1 }
      i += 1
    }
  }

  /** z(s) += row(j) * xt(j)(s) for every lane s, j ascending. Four j per
    * sweep keep each lane's sum in a register; the order of its adds is
    * unchanged.
    */
  private def accumulate(z: Array[Double], row: Array[Double], xt: Array[Array[Double]], n: Int): Unit = {
    val m = row.length
    var j = 0
    while (j + 4 <= m) {
      val r0 = row(j); val r1 = row(j + 1); val r2 = row(j + 2); val r3 = row(j + 3)
      val x0 = xt(j); val x1 = xt(j + 1); val x2 = xt(j + 2); val x3 = xt(j + 3)
      var s = 0
      while (s < n) {
        var t = z(s)
        t += r0 * x0(s); t += r1 * x1(s); t += r2 * x2(s); t += r3 * x3(s)
        z(s) = t
        s += 1
      }
      j += 4
    }
    while (j < m) {
      val w = row(j); val x = xt(j)
      var s = 0
      while (s < n) { z(s) += w * x(s); s += 1 }
      j += 1
    }
  }

  /** Squared Euclidean distance between two embeddings. */
  def dist2(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** One SGD step on a triplet; returns the (pre-update) loss. Gradients:
    * ∂L/∂f(a) = 2(f(n)−f(p)), ∂L/∂f(p) = −2(f(a)−f(p)), ∂L/∂f(n) = 2(f(a)−f(n)).
    */
  def tripletStep(a: Array[Double], p: Array[Double], n: Array[Double],
      margin: Double, lr: Double): Double = {
    val (ha, fa) = forward(a)
    val (hp, fp) = forward(p)
    val (hn, fn) = forward(n)
    val loss = margin + dist2(fa, fp) - dist2(fa, fn)
    if (loss <= 0) return 0.0

    val ga = new Array[Double](outDim)
    val gp = new Array[Double](outDim)
    val gn = new Array[Double](outDim)
    var i = 0
    while (i < outDim) {
      ga(i) = 2 * (fn(i) - fp(i))
      gp(i) = -2 * (fa(i) - fp(i))
      gn(i) = 2 * (fa(i) - fn(i))
      i += 1
    }
    backprop(a, ha, ga, lr)
    backprop(p, hp, gp, lr)
    backprop(n, hn, gn, lr)
    loss
  }

  /** Backprop one sample's output-gradient through both layers (SGD update). */
  private def backprop(x: Array[Double], h: Array[Double], gOut: Array[Double], lr: Double): Unit = {
    writes += 1
    // grad wrt hidden, plus W2/b2 update
    val gh = new Array[Double](hiddenDim)
    var i = 0
    while (i < outDim) {
      val g = gOut(i); val row = w2(i)
      var j = 0
      while (j < hiddenDim) {
        gh(j) += row(j) * g
        row(j) -= lr * g * h(j)
        j += 1
      }
      b2(i) -= lr * g
      i += 1
    }
    // through tanh, W1/b1 update
    i = 0
    while (i < hiddenDim) {
      val g = gh(i) * (1 - h(i) * h(i))
      val row = w1(i)
      var j = 0
      while (j < inDim) { row(j) -= lr * g * x(j); j += 1 }
      b1(i) -= lr * g
      i += 1
    }
  }
}

object SeedMlp {

  /** The fewest lanes `embedAll` gives one chunk: below this, a chunk's
    * fork and join cost more than its forward passes.
    */
  private[joint] val MinLanes = 8
}
