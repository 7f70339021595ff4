package repro.ekg

import scala.collection.mutable

/** The Enterprise Knowledge Graph (§5.1): DEs as nodes, typed weighted
  * relationships as edges. Nodes are documents, columns and tables; edge
  * types include the syntactic/semantic column relationships, the
  * cross-modal joint-embedding links, and the higher-order table-table
  * PK-FK and unionability relationships. Edges are indexed by (source,
  * relationship type), the only lookup `neighbors` needs.
  */
final class Ekg {

  final case class Edge(src: String, dst: String, relType: String, weight: Double)

  private var edgeCount = 0
  private val bySrcType = mutable.HashMap.empty[(String, String), mutable.ArrayBuffer[Edge]]
  private val nodeSet = mutable.HashSet.empty[String]

  def add(src: String, dst: String, relType: String, weight: Double): Unit = {
    bySrcType.getOrElseUpdate((src, relType), mutable.ArrayBuffer.empty) += Edge(src, dst, relType, weight)
    edgeCount += 1
    nodeSet += src; nodeSet += dst
  }

  /** Neighbors of a node under a relationship type, best-first. */
  def neighbors(src: String, relType: String): Seq[(String, Double)] =
    bySrcType.getOrElse((src, relType), mutable.ArrayBuffer.empty)
      .sortBy(e => (-e.weight, e.dst))
      .map(e => (e.dst, e.weight))
      .toSeq

  def nodes: Set[String] = nodeSet.toSet
  def size: Int = edgeCount
}
