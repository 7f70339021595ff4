package repro.baseline

import repro.discover.JoinDiscovery
import repro.lake.ColRef
import repro.profile.{ColumnProfile, Tags}
import repro.sketch.MinHash

/** The Aurum [31] baseline, re-implemented from its published scoring rules.
  *
  * Aurum materializes schema- and content-similarity links between column
  * pairs into a knowledge graph. The content measure is plain *Jaccard
  * similarity* estimated from minhash signatures — the paper's Tables 3 and 4
  * trace Aurum's weaknesses (and its DrugBank precision edge) to exactly this
  * choice. PK-FK additionally requires the PK side to be strictly key-like
  * (uniqueness ≥ 0.95, no tolerance for duplicate-bearing keys) and applies
  * no schema-name filter; numeric pairs share CMDL's numeric rule (§6.2).
  */
object Aurum {

  /** PK-FK thresholds: PK-FK Jaccard similarity and PK uniqueness. */
  private val JaccardThreshold = 0.22
  private val PkUniqueness = 0.95

  /** Syntactic-join ranking by estimated Jaccard similarity. */
  final class SyntacticIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq

    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      JoinDiscovery.rank(query, joinable.iterator, (q, c) => MinHash.estJaccard(q.sig, c.sig), k)
  }

  /** PK-FK discovery: Jaccard similarity as the inclusion measure; numeric
    * pairs take CMDL's path — the reason Table 4's ChEBI rows coincide.
    */
  def pkfk(profiles: Seq[ColumnProfile]): Set[(ColRef, ColRef)] =
    JoinDiscovery.pkfkLinks(profiles) { (p, f) =>
      p.uniqueness >= PkUniqueness && MinHash.estJaccard(p.sig, f.sig) >= JaccardThreshold
    }
}
