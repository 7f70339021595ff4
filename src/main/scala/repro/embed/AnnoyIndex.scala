package repro.embed

import scala.collection.mutable
import scala.util.Random

import repro.embed.EmbeddingMatrix.dot

/** Random-projection-forest approximate-nearest-neighbour index — the Annoy
  * [45] substitute (§3). Solo and joint embeddings are indexed here; probes
  * serve both online semantic search and the semantic labeling function
  * (Fig. 3, Table 6).
  *
  * Construction: each of `nTrees` trees recursively splits the items by the
  * hyperplane through the difference of two randomly chosen items (Annoy's
  * split rule) until leaves hold at most `leafSize` items. A probe walks all
  * trees with a shared max-heap on hyperplane margins until at least
  * `searchK` candidates are gathered, then exact-cosine re-ranks them.
  *
  * The forest lives in flat arrays (nodes as `Int`s, planes in one
  * `Array[Float]`), the walk's heap holds primitive (priority, node) pairs and
  * the re-rank is `EmbeddingMatrix`'s kernel with a bounded top k. The heap
  * sifts exactly as `mutable.PriorityQueue` does, so equal priorities (every
  * root at `Double.MaxValue`, many children at 0) leave the heap in the same
  * order, and a probe gathers the same leaves as a walk over that queue.
  */
final class AnnoyIndex(
    items: IndexedSeq[(String, Array[Float])],
    nTrees: Int = 8,
    leafSize: Int = 16,
    seed: Long = 42L,
) {
  import AnnoyIndex._

  private val ids: Array[String] = items.iterator.map(_._1).toArray

  /** The indexed vectors, row `i` holding item `i`'s. */
  val vectors: EmbeddingMatrix = new EmbeddingMatrix(items.map(_._2))

  /** Each item's position in (id, item) order: the re-rank's tie-break. */
  private val idRank: Array[Int] = {
    val rank = new Array[Int](ids.length)
    ids.indices.sortBy(ids(_)).iterator.zipWithIndex.foreach { case (i, r) => rank(i) = r }
    rank
  }

  private val forest: Forest = {
    val b = new ForestBuilder(vectors, leafSize, new Random(seed))
    b.result(Array.fill(math.max(1, nTrees))(b.node(Array.range(0, vectors.size))))
  }

  /** Top-k items by cosine similarity to `q` (approximate, re-ranked exact). */
  def query(q: Array[Float], k: Int, searchKOpt: Int = -1): Seq[(String, Double)] = {
    if (size == 0 || k <= 0) return Seq.empty
    require(q.length == vectors.dim, "dim mismatch")
    val searchK = if (searchKOpt > 0) searchKOpt else math.max(k * nTrees, 64)
    val f = forest
    val inCand = new Array[Boolean](size)
    val cand = new Array[Int](size)
    var count = 0
    // (priority, node): higher priority = larger margin bound, explored first.
    val heap = new Heap(f.roots.length + f.splits)
    f.roots.foreach(heap.push(Double.MaxValue, _))
    while (count < searchK && heap.nonEmpty) {
      val p = heap.topPriority
      val node = heap.pop()
      val plane = f.plane(node)
      if (plane < 0) {
        var i = f.lo(node)
        while (i < f.hi(node)) {
          val item = f.leafItems(i)
          if (!inCand(item)) { inCand(item) = true; cand(count) = item; count += 1 }
          i += 1
        }
      } else {
        val m = dot(q, 0, f.planes, plane * vectors.dim, vectors.dim)
        heap.push(math.min(p, math.max(m, 0.0)), f.lo(node))
        heap.push(math.min(p, math.max(-m, 0.0)), f.hi(node))
      }
    }
    val cos = new Array[Double](count)
    vectors.cosines(q, cand, count, cos)
    val keys = Array.tabulate(count)(i => idRank(cand(i)))
    EmbeddingMatrix.topK(cos, keys, count, k).toSeq.map(i => (ids(cand(i)), cos(i)))
  }

  def size: Int = ids.length
}

object AnnoyIndex {

  /** The trees' nodes. Node `x` is a leaf when `plane(x) < 0`, holding items
    * `leafItems(lo(x) until hi(x))`; otherwise it splits by the plane in row
    * `plane(x)` of `planes`, with children `lo(x)` (margin ≥ 0) and `hi(x)`.
    */
  private final class Forest(
      val roots: Array[Int],
      val lo: Array[Int],
      val hi: Array[Int],
      val plane: Array[Int],
      val planes: Array[Float],
      val leafItems: Array[Int],
  ) {
    val splits: Int = plane.count(_ >= 0)
  }

  /** Grows trees by Annoy's split rule, drawing from `rng` in the order of a
    * depth-first build (pivots, then the left subtree, then the right one).
    */
  private final class ForestBuilder(vectors: EmbeddingMatrix, leafSize: Int, rng: Random) {
    private val dim = vectors.dim
    private val lo, hi, plane, leafItems = mutable.ArrayBuilder.make[Int]
    private val planes = mutable.ArrayBuilder.make[Float]
    private var nodes, splits = 0

    /** Builds the subtree over items `idx` and returns its root. */
    def node(idx: Array[Int]): Int = {
      if (idx.length <= leafSize) return leaf(idx)
      val a = idx(rng.nextInt(idx.length)) * dim
      val b = idx(rng.nextInt(idx.length)) * dim
      val p = new Array[Float](dim)
      var i = 0
      while (i < dim) { p(i) = vectors.data(a + i) - vectors.data(b + i); i += 1 }
      if (p.forall(_ == 0f)) return leaf(idx) // duplicate pivots; stop splitting
      val margin = new Array[Double](idx.length)
      vectors.dots(p, idx, idx.length, margin)
      var nLeft = 0
      i = 0
      while (i < idx.length) { if (margin(i) >= 0) nLeft += 1; i += 1 }
      if (nLeft == 0 || nLeft == idx.length) return leaf(idx)
      // items with margin >= 0 go left, each side keeping their order
      val left = new Array[Int](nLeft)
      val right = new Array[Int](idx.length - nLeft)
      var l, r = 0
      i = 0
      while (i < idx.length) {
        if (margin(i) >= 0) { left(l) = idx(i); l += 1 } else { right(r) = idx(i); r += 1 }
        i += 1
      }
      val lNode = node(left)
      val rNode = node(right)
      planes ++= p
      add(lNode, rNode, splits)
      splits += 1
      nodes - 1
    }

    private def leaf(idx: Array[Int]): Int = {
      val start = leafItems.length
      leafItems ++= idx
      add(start, leafItems.length, -1)
      nodes - 1
    }

    private def add(l: Int, h: Int, pl: Int): Unit = { lo += l; hi += h; plane += pl; nodes += 1 }

    def result(roots: Array[Int]): Forest =
      new Forest(roots, lo.result(), hi.result(), plane.result(), planes.result(), leafItems.result())
  }

  /** A max-heap of (priority, node) pairs that sifts exactly as
    * `mutable.PriorityQueue` under `Ordering.by(_._1)` does: 1-based, `push`
    * appends and sifts up while the parent is less, `pop` moves the last
    * element to the root and sifts down to the larger child (the right one
    * only if the left is less), with `java.lang.Double.compare` as the order.
    */
  private final class Heap(capacity: Int) {
    private val prio = new Array[Double](capacity + 1)
    private val node = new Array[Int](capacity + 1)
    private var end = 1 // one past the last element

    def nonEmpty: Boolean = end > 1
    def topPriority: Double = prio(1)

    private def lt(a: Int, b: Int): Boolean = java.lang.Double.compare(prio(a), prio(b)) < 0

    private def swap(a: Int, b: Int): Unit = {
      val p = prio(a); prio(a) = prio(b); prio(b) = p
      val n = node(a); node(a) = node(b); node(b) = n
    }

    def push(p: Double, n: Int): Unit = {
      prio(end) = p; node(end) = n
      var k = end
      end += 1
      while (k > 1 && lt(k / 2, k)) { swap(k, k / 2); k /= 2 }
    }

    def pop(): Int = {
      val top = node(1)
      end -= 1
      prio(1) = prio(end); node(1) = node(end)
      val last = end - 1
      var k = 1
      var done = false
      while (!done && last >= 2 * k) {
        var j = 2 * k
        if (j < last && lt(j, j + 1)) j += 1
        if (!lt(k, j)) done = true
        else { swap(k, j); k = j }
      }
      top
    }
  }
}
