package repro.joint

import java.util.concurrent.{ForkJoinPool, RecursiveAction}

import scala.util.Random

/** The joint representation model (§4.2): a deep multi-layer network mapping
  * a DE's 200-d input encoding (metadata ‖ content solo embeddings) to a
  * 100-d joint embedding, trained with the triplet margin loss of Eq. 1.
  *
  * The paper trains it in PyTorch; this is a from-scratch implementation —
  * tanh hidden layer, linear output, SGD over triplet gradients. Squared
  * Euclidean distance is used inside the loss (the gradients are then
  * linear in the embedding differences).
  *
  * The weights are stored input-major: `w1t(j)(i)` is the weight from input
  * `j` to hidden unit `i`. A forward pass therefore sweeps one weight row per
  * input and adds its products into every unit at once, an inner loop over
  * units that the JIT vectorises, with four samples sharing each sweep. Each
  * unit still sums from its bias over the inputs in ascending order, the
  * order of a row-major dot product, so the layout changes no bit of any
  * output. `w1` and `w2` give row-major copies. The hidden layer's tanh is
  * `FdLibm.tanh`, which equals `math.tanh` (`StrictMath.tanh`) bit for bit
  * without its native call.
  *
  * Training is sequential per-triplet SGD: every `tripletStep` with a
  * positive loss writes the weights at once. `version` counts those writes,
  * so a caller may reuse an embedding for as long as the version it was
  * computed at is current. `embedAll` is the batched forward pass: its
  * samples are split across the cores of the common `ForkJoinPool`, and it
  * gives the same bits as `embed` on every sample. Only forward passes run
  * in parallel; the SGD steps stay sequential in the caller.
  */
final class Mlp(val inDim: Int = 200, val hiddenDim: Int = 150, val outDim: Int = 100, seed: Long = 5L) {

  private val rnd = new Random(seed)
  /** Drawn output-major, row by row, and stored transposed. */
  private def init(rows: Int, cols: Int): Array[Array[Double]] = {
    val s = math.sqrt(6.0 / (rows + cols))
    val w = Array.fill(rows, cols)((rnd.nextDouble() * 2 - 1) * s)
    Array.tabulate(cols, rows)((j, i) => w(i)(j))
  }
  private val w1t: Array[Array[Double]] = init(hiddenDim, inDim)
  val b1: Array[Double] = new Array[Double](hiddenDim)
  private val w2t: Array[Array[Double]] = init(outDim, hiddenDim)
  val b2: Array[Double] = new Array[Double](outDim)

  /** Row-major copy of the hidden layer's weights: `w1(i)(j)` from input `j` to unit `i`. */
  def w1: Array[Array[Double]] = Array.tabulate(hiddenDim, inDim)((i, j) => w1t(j)(i))

  /** Row-major copy of the output layer's weights. */
  def w2: Array[Array[Double]] = Array.tabulate(outDim, hiddenDim)((i, j) => w2t(j)(i))

  private var writes = 0L

  /** Number of weight writes (one per backprop pass) so far; unchanged while the weights are. */
  def version: Long = writes

  /** Forward pass: the output embedding of one sample. */
  def embed(x: Array[Double]): Array[Double] = forwardAll(Array(x))._2(0)

  /** `embed` of every sample. The lanes are cut into contiguous chunks that
    * run on the common `ForkJoinPool`, the caller running the first; a batch
    * of fewer than `2 * MinLanes` samples is one chunk, run in the caller.
    * No weight is written while chunks run, and a lane's result does not
    * depend on its chunk, so every output equals `embed` bit for bit.
    */
  def embedAll(xs: IndexedSeq[Array[Double]]): Array[Array[Double]] = {
    val n = xs.size
    val in = xs.toArray
    val out = new Array[Array[Double]](n)
    val chunks = math.max(1, math.min(ForkJoinPool.getCommonPoolParallelism + 1, n / Mlp.MinLanes))
    def from(c: Int) = (c.toLong * n / chunks).toInt
    def run(c: Int): Unit = {
      val (lo, hi) = (from(c), from(c + 1))
      Array.copy(forwardAll(in.slice(lo, hi))._2, 0, out, lo, hi - lo)
    }
    val rest = (1 until chunks).map(c => new RecursiveAction { def compute(): Unit = run(c) }.fork())
    run(0)
    rest.foreach(_.join())
    out
  }

  /** Hidden activations and outputs of every lane of `xs`. */
  private def forwardAll(xs: Array[Array[Double]]): (Array[Array[Double]], Array[Array[Double]]) = {
    val hs = Array.fill(xs.length)(new Array[Double](hiddenDim))
    layer(w1t, b1, xs, hs)
    for (h <- hs) {
      var i = 0
      while (i < hiddenDim) { h(i) = FdLibm.tanh(h(i)); i += 1 }
    }
    val outs = Array.fill(xs.length)(new Array[Double](outDim))
    layer(w2t, b2, hs, outs)
    (hs, outs)
  }

  /** One layer for every lane s: `zs(s)(i) = b(i) + Σ_j wt(j)(i) * xs(s)(j)`,
    * each unit summed from its bias in ascending `j`. The inner loop runs
    * over units; four lanes share each sweep of a weight row, and a tail of
    * fewer than four runs one lane per sweep.
    */
  private def layer(wt: Array[Array[Double]], b: Array[Double], xs: Array[Array[Double]],
      zs: Array[Array[Double]]): Unit = {
    val m = b.length
    val n = zs.length
    for (z <- zs) System.arraycopy(b, 0, z, 0, m)
    var s = 0
    while (s + 4 <= n) {
      val x0 = xs(s); val x1 = xs(s + 1); val x2 = xs(s + 2); val x3 = xs(s + 3)
      val z0 = zs(s); val z1 = zs(s + 1); val z2 = zs(s + 2); val z3 = zs(s + 3)
      var j = 0
      while (j < wt.length) {
        val w = wt(j); val a0 = x0(j); val a1 = x1(j); val a2 = x2(j); val a3 = x3(j)
        var i = 0
        while (i < m) {
          val wi = w(i)
          z0(i) += wi * a0; z1(i) += wi * a1; z2(i) += wi * a2; z3(i) += wi * a3
          i += 1
        }
        j += 1
      }
      s += 4
    }
    while (s < n) {
      val x = xs(s); val z = zs(s)
      var j = 0
      while (j < wt.length) {
        val w = wt(j); val a = x(j)
        var i = 0
        while (i < m) { z(i) += w(i) * a; i += 1 }
        j += 1
      }
      s += 1
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
    * The three forward passes are one three-lane call: no weight changes
    * between them.
    */
  def tripletStep(a: Array[Double], p: Array[Double], n: Array[Double],
      margin: Double, lr: Double): Double = {
    val (Array(ha, hp, hn), Array(fa, fp, fn)) = forwardAll(Array(a, p, n))
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

  /** Backprop one sample's output-gradient through both layers (SGD update).
    * The hidden gradient `gh(j) = Σ_i w2(i)(j) * gOut(i)` is summed in
    * ascending `i` from the weights before this update; every weight then
    * moves by `(lr * g(i)) * input(j)`, with `lr * g(i)` formed once per unit.
    */
  private def backprop(x: Array[Double], h: Array[Double], gOut: Array[Double], lr: Double): Unit = {
    writes += 1
    val gh = new Array[Double](hiddenDim)
    var j = 0
    while (j + 4 <= hiddenDim) {
      val r0 = w2t(j); val r1 = w2t(j + 1); val r2 = w2t(j + 2); val r3 = w2t(j + 3)
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var i = 0
      while (i < outDim) {
        val g = gOut(i)
        s0 += r0(i) * g; s1 += r1(i) * g; s2 += r2(i) * g; s3 += r3(i) * g
        i += 1
      }
      gh(j) = s0; gh(j + 1) = s1; gh(j + 2) = s2; gh(j + 3) = s3
      j += 4
    }
    while (j < hiddenDim) {
      val r = w2t(j); var s = 0.0; var i = 0
      while (i < outDim) { s += r(i) * gOut(i); i += 1 }
      gh(j) = s
      j += 1
    }
    val lg2 = new Array[Double](outDim)
    var i = 0
    while (i < outDim) { lg2(i) = lr * gOut(i); b2(i) -= lg2(i); i += 1 }
    update(w2t, lg2, h)
    // through tanh
    val lg1 = new Array[Double](hiddenDim)
    i = 0
    while (i < hiddenDim) { lg1(i) = lr * (gh(i) * (1 - h(i) * h(i))); b1(i) -= lg1(i); i += 1 }
    update(w1t, lg1, x)
  }

  /** `wt(j)(i) -= lg(i) * x(j)` for every weight, the inner loop over units. */
  private def update(wt: Array[Array[Double]], lg: Array[Double], x: Array[Double]): Unit = {
    var j = 0
    while (j < wt.length) {
      val w = wt(j); val a = x(j)
      var i = 0
      while (i < w.length) { w(i) -= lg(i) * a; i += 1 }
      j += 1
    }
  }
}

object Mlp {

  /** The fewest lanes `embedAll` gives one chunk: below this, a chunk's
    * fork and join cost more than its forward passes.
    */
  private[joint] val MinLanes = 8
}
