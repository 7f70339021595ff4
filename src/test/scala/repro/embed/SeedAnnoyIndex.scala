package repro.embed

import scala.collection.mutable
import scala.util.Random

/** The seed's Annoy index, kept as a test oracle: a forest of `Leaf` and
  * `Split` objects, a walk over a `mutable.PriorityQueue[(Double, Node)]`, a
  * `BitSet` of candidates and a boxed `sortBy` re-rank with
  * `WordVectors.cosine`. The flat `AnnoyIndex` must give the same ids and the
  * same score bits on every probe.
  */
final class SeedAnnoyIndex(
    items: IndexedSeq[(String, Array[Float])],
    nTrees: Int = 8,
    leafSize: Int = 16,
    seed: Long = 42L,
) {
  import SeedAnnoyIndex._

  private val vecs = items.map(_._2)
  private val rng = new Random(seed)
  private val trees: IndexedSeq[Node] =
    IndexedSeq.fill(math.max(1, nTrees))(buildNode(vecs.indices.toArray))

  private def buildNode(idx: Array[Int]): Node = {
    if (idx.length <= leafSize) return Leaf(idx)
    val a = vecs(idx(rng.nextInt(idx.length)))
    val b = vecs(idx(rng.nextInt(idx.length)))
    val plane = new Array[Float](a.length)
    var i = 0
    while (i < a.length) { plane(i) = a(i) - b(i); i += 1 }
    if (plane.forall(_ == 0f)) return Leaf(idx) // duplicate pivots; stop splitting
    val (left, right) = idx.partition(j => dot(vecs(j), plane) >= 0)
    if (left.isEmpty || right.isEmpty) Leaf(idx)
    else Split(plane, buildNode(left), buildNode(right))
  }

  /** Top-k items by cosine similarity to `q` (approximate, re-ranked exact). */
  def query(q: Array[Float], k: Int, searchKOpt: Int = -1): Seq[(String, Double)] = {
    if (items.isEmpty) return Seq.empty
    val searchK = if (searchKOpt > 0) searchKOpt else math.max(k * nTrees, 64)
    val cand = mutable.BitSet.empty
    // (priority, node): higher priority = larger margin bound, explored first.
    val pq = mutable.PriorityQueue.empty[(Double, Node)](Ordering.by(_._1))
    trees.foreach(t => pq.enqueue((Double.MaxValue, t)))
    while (cand.size < searchK && pq.nonEmpty) {
      val (p, node) = pq.dequeue()
      node match {
        case Leaf(idx) => idx.foreach(cand.add)
        case Split(plane, l, r) =>
          val m = dot(q, plane)
          pq.enqueue((math.min(p, math.max(m, 0.0)), l))
          pq.enqueue((math.min(p, math.max(-m, 0.0)), r))
      }
    }
    cand.toSeq
      .map(i => (items(i)._1, WordVectors.cosine(q, vecs(i))))
      .sortBy { case (id, s) => (-s, id) }
      .take(k)
  }

  def size: Int = items.size

  private def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
}

object SeedAnnoyIndex {
  private sealed trait Node
  private final case class Leaf(idx: Array[Int]) extends Node
  private final case class Split(plane: Array[Float], left: Node, right: Node) extends Node
}
