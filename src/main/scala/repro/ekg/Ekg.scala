package repro.ekg

import scala.collection.mutable

/** The Enterprise Knowledge Graph (§5.1): DEs as nodes, typed weighted
  * relationships as edges. Nodes are documents, columns and tables; edge
  * types include the syntactic/semantic column relationships, the
  * cross-modal joint-embedding links, and the higher-order table-table
  * PK-FK and unionability relationships. A relationship is one edge per
  * (source, destination, type), weighted by its last write; edges are
  * indexed by (source, type), the only lookup `neighbors` needs.
  */
final class Ekg {

  private var edgeCount = 0
  private val bySrcType = mutable.HashMap.empty[(String, String), mutable.HashMap[String, Double]]
  private val nodeSet = mutable.HashSet.empty[String]

  def add(src: String, dst: String, relType: String, weight: Double): Unit = {
    if (bySrcType.getOrElseUpdate((src, relType), mutable.HashMap.empty).put(dst, weight).isEmpty) edgeCount += 1
    nodeSet += src; nodeSet += dst
  }

  /** Neighbors of a node under a relationship type, best-first. */
  def neighbors(src: String, relType: String): Seq[(String, Double)] =
    bySrcType.get((src, relType)).fold(Seq.empty[(String, Double)])(_.toSeq.sortBy { case (d, w) => (-w, d) })

  def nodes: Set[String] = nodeSet.toSet
  def size: Int = edgeCount
}
