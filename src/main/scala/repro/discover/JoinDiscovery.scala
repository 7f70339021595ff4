package repro.discover

import repro.lake.ColRef
import repro.profile.{ColumnProfile, Tags}
import repro.sketch.{LshEnsemble, MinHash, Similarity}

/** CMDL joinability discovery (§5.1, Tables 3 and 4), and the join-discovery
  * loops that the Aurum and D3L baselines share with it.
  *
  * Syntactic join: candidates come from an LSH-Ensemble probe and are ranked
  * by the *maximum-direction* estimated Jaccard set containment — the measure
  * CMDL adopts over plain Jaccard similarity because it survives skewed
  * cardinalities between the joined DEs.
  *
  * PK-FK: a pair (P, F) is emitted when F's values are (estimated) contained
  * in P, P is key-like, and the two columns have similar names (CMDL's schema
  * similarity filter). CMDL's key-ness test is deliberately tolerant of
  * slightly duplicate-bearing keys (`PkUniqueness` = 0.85), which is what
  * gives it high recall but lower precision on DrugBank (Table 4). Numeric
  * column pairs go through one numeric-overlap rule for CMDL and Aurum alike,
  * which is why the two systems coincide on ChEBI.
  */
object JoinDiscovery {

  /** CMDL's PK-FK thresholds: FK-in-PK containment, name similarity, PK uniqueness. */
  private val ContThreshold = 0.75
  private val NameSimThreshold = 0.3
  private val PkUniqueness = 0.85

  /** The numeric rule's thresholds: FK range inside the PK's, PK uniqueness. */
  private val NumericOverlapThreshold = 0.5
  private val NumericPkUniqueness = 0.95

  /** Top-k syntactic-join index over column profiles. */
  final class SyntacticIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq
    private val byRef: Map[String, ColumnProfile] = joinable.map(p => p.ref -> p).toMap
    private val lsh = new LshEnsemble(joinable.map(p => LshEnsemble.Entry(p.ref, p.sig, p.card)))

    /** Rank every column colliding with `query` in the LSH index by max-direction containment. */
    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      rank(query, lsh.candidates(query.sig).map(e => byRef(e.id)), UnionDiscovery.containmentScore, k)
  }

  /** The join ranker of CMDL, Aurum and D3L: scores every candidate outside
    * the query's table, keeps the positive scores and returns the k best by
    * (-score, ref).
    */
  def rank(query: ColumnProfile, candidates: Iterator[ColumnProfile],
      score: (ColumnProfile, ColumnProfile) => Double, k: Int): Seq[(ColRef, Double)] =
    candidates
      .filter(_.table != query.table)
      .map(c => (ColRef(c.table, c.column), score(query, c)))
      .filter(_._2 > 0)
      .toSeq
      .sortBy { case (ref, s) => (-s, ref.render) }
      .take(k)

  /** PK-FK discovery over one database's profiles — emits (pk, fk) links. */
  def pkfk(profiles: Seq[ColumnProfile]): Set[(ColRef, ColRef)] =
    pkfkLinks(profiles) { (p, f) =>
      p.uniqueness >= PkUniqueness &&
      MinHash.estContainment(f.sig, f.card, p.sig, p.card) >= ContThreshold &&
      Similarity.nameSimilarity(p.column, f.column) >= NameSimThreshold
    }

  /** The PK-FK loop of CMDL and Aurum: every ordered pair of joinable id or
    * numeric columns in different tables, linked by the numeric rule when
    * both are numeric, never when one is, and by `isLink` otherwise.
    */
  def pkfkLinks(profiles: Seq[ColumnProfile])(
      isLink: (ColumnProfile, ColumnProfile) => Boolean): Set[(ColRef, ColRef)] = {
    val cands = profiles.filter(p =>
      p.hasTag(Tags.Joinable) && (p.dtype == "id" || p.dtype == "numeric") && p.card > 0)
    val links = for {
      p <- cands
      f <- cands
      if p.table != f.table
      if (if (p.isNumeric || f.isNumeric) p.isNumeric && f.isNumeric && numericLink(p, f) else isLink(p, f))
    } yield (ColRef(p.table, p.column), ColRef(f.table, f.column))
    links.toSet
  }

  /** Range overlap of the FK inside the PK's range plus a strict key-ness
    * test on the PK side (§6.2).
    */
  private def numericLink(p: ColumnProfile, f: ColumnProfile): Boolean =
    !p.numMin.isNaN && !f.numMin.isNaN &&
    p.uniqueness >= NumericPkUniqueness &&
    Similarity.numericOverlap(f.numMin, f.numMax, p.numMin, p.numMax) >= NumericOverlapThreshold
}
