package repro.discover

import repro.baseline.D3L
import repro.lake.ColRef
import repro.profile.{ColumnProfile, Tags}
import repro.sketch.{LshEnsemble, MinHash, Similarity}

/** The seed's join-discovery loops, kept as a test oracle: CMDL's, Aurum's and
  * D3L's `topK`, each written out in full, and CMDL's and Aurum's `pkfk` with
  * their default thresholds. CMDL's `topK` over-fetches `k + 32` LSH
  * candidates by query→candidate containment before re-ranking them by
  * max-direction containment, and keeps zero scores. The shared ranker and
  * PK-FK loop must answer as these do, except for CMDL's zero scores.
  */
object SeedJoins {

  final class CmdlIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq
    private val byRef: Map[String, ColumnProfile] = joinable.map(p => p.ref -> p).toMap
    private val lsh = new LshEnsemble(joinable.map(p => LshEnsemble.Entry(p.ref, p.sig, p.card)))

    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      lsh.query(query.sig, query.card, k + 32)
        .flatMap { case (ref, contQtoC) =>
          val cand = byRef(ref)
          if (cand.table == query.table) None
          else {
            val contCtoQ = MinHash.estContainment(cand.sig, cand.card, query.sig, query.card)
            Some((ColRef(cand.table, cand.column), math.max(contQtoC, contCtoQ)))
          }
        }
        .sortBy { case (ref, s) => (-s, ref.render) }
        .take(k)
  }

  final class AurumIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq

    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      joinable.iterator
        .filter(_.table != query.table)
        .map(c => (ColRef(c.table, c.column), MinHash.estJaccard(query.sig, c.sig)))
        .filter(_._2 > 0)
        .toSeq
        .sortBy { case (ref, s) => (-s, ref.render) }
        .take(k)
  }

  final class D3lIndex(profiles: Seq[ColumnProfile]) {
    private val joinable = profiles.filter(_.hasTag(Tags.Joinable)).toIndexedSeq

    def topK(query: ColumnProfile, k: Int): Seq[(ColRef, Double)] =
      joinable.iterator
        .filter(_.table != query.table)
        .map { c =>
          val s = D3L.signals(query, c).copy(numeric = numericOverlap(query, c))
          (ColRef(c.table, c.column), if (s.value > 0 || s.numeric > 0) D3L.combine(s) else 0.0)
        }
        .filter(_._2 > 0)
        .toSeq
        .sortBy { case (ref, s) => (-s, ref.render) }
        .take(k)
  }

  def cmdlPkfk(profiles: Seq[ColumnProfile]): Set[(ColRef, ColRef)] =
    pkfk(profiles) { (p, f) =>
      if (p.isNumeric || f.isNumeric) p.isNumeric && f.isNumeric && numericPkfkRule(p, f, 0.5, 0.95)
      else
        p.uniqueness >= 0.85 &&
        MinHash.estContainment(f.sig, f.card, p.sig, p.card) >= 0.75 &&
        Similarity.nameSimilarity(p.column, f.column) >= 0.3
    }

  def aurumPkfk(profiles: Seq[ColumnProfile]): Set[(ColRef, ColRef)] =
    pkfk(profiles) { (p, f) =>
      if (p.isNumeric || f.isNumeric) p.isNumeric && f.isNumeric && numericPkfkRule(p, f, 0.5, 0.95)
      else p.uniqueness >= 0.95 && MinHash.estJaccard(p.sig, f.sig) >= 0.22
    }

  private def pkfk(profiles: Seq[ColumnProfile])(
      isLink: (ColumnProfile, ColumnProfile) => Boolean): Set[(ColRef, ColRef)] = {
    val cands = profiles.filter(p =>
      p.hasTag(Tags.Joinable) && (p.dtype == "id" || p.dtype == "numeric") && p.card > 0)
    val links = for {
      p <- cands
      f <- cands
      if p.table != f.table
      if isLink(p, f)
    } yield (ColRef(p.table, p.column), ColRef(f.table, f.column))
    links.toSet
  }

  private def numericOverlap(a: ColumnProfile, b: ColumnProfile): Double =
    if (a.isNumeric && b.isNumeric && !a.numMin.isNaN && !b.numMin.isNaN)
      Similarity.numericOverlap(a.numMin, a.numMax, b.numMin, b.numMax)
    else 0.0

  private def numericPkfkRule(p: ColumnProfile, f: ColumnProfile,
      overlapThreshold: Double, pkUniqueness: Double): Boolean = {
    if (p.numMin.isNaN || f.numMin.isNaN) return false
    p.uniqueness >= pkUniqueness &&
    Similarity.numericOverlap(f.numMin, f.numMax, p.numMin, p.numMax) >= overlapThreshold
  }
}
