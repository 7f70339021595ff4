package repro.core

/** Evaluation metrics of §6: precision/recall of a result set,
  * R-precision (precision=recall when k equals the ground-truth size,
  * Table 3), and Relative Recall (Table 5).
  */
object Eval {

  final case class Pr(precision: Double, recall: Double)

  /** R-precision: k is the per-query ground-truth size, so precision ==
    * recall [25]; returned averaged over the query set (Table 3 protocol).
    */
  def rPrecision[Q, A](queries: Map[Q, Set[A]], answer: (Q, Int) => Seq[A]): Double = {
    if (queries.isEmpty) return 0.0
    val scores = queries.toSeq.map { case (q, truth) =>
      val k = truth.size
      if (k == 0) 0.0
      else answer(q, k).take(k).count(truth.contains).toDouble / k
    }
    scores.sum / scores.size
  }

  /** Precision/recall of an unranked result *set* against a ground-truth set
    * (Table 4 protocol — PK-FK discovery emits a link set, not a ranking).
    */
  def setPr[A](found: Set[A], truth: Set[A]): Pr = {
    val hits = found.intersect(truth).size.toDouble
    Pr(
      precision = if (found.isEmpty) 0.0 else hits / found.size,
      recall = if (truth.isEmpty) 0.0 else hits / truth.size,
    )
  }

  /** Relative Recall of measure S [59]: |true matches found by S| over
    * |true matches found by the union of all measures| (Table 5). Also
    * returns the fraction of queries S answered with at least one true match.
    */
  final case class RelRecall(rr: Double, queriesAnswered: Double)

  def relativeRecall[Q, A](
      truthByQuery: Map[Q, Set[A]],
      foundByMeasure: Map[String, Map[Q, Set[A]]],
  ): Map[String, RelRecall] = {
    val trueFound: Map[String, Map[Q, Set[A]]] = foundByMeasure.view.mapValues { byQ =>
      byQ.map { case (q, as) => q -> as.intersect(truthByQuery.getOrElse(q, Set.empty)) }
    }.toMap
    // keysIterator: a Set.map over sizes would deduplicate equal counts
    val unionSize = truthByQuery.keysIterator.map { q =>
      trueFound.values.flatMap(_.getOrElse(q, Set.empty)).toSet.size
    }.sum
    trueFound.map { case (m, byQ) =>
      val found = byQ.values.map(_.size).sum
      val answered = truthByQuery.keys.count(q => byQ.getOrElse(q, Set.empty).nonEmpty)
      m -> RelRecall(
        rr = if (unionSize == 0) 0.0 else found.toDouble / unionSize,
        queriesAnswered = if (truthByQuery.isEmpty) 0.0 else answered.toDouble / truthByQuery.size,
      )
    }
  }
}
