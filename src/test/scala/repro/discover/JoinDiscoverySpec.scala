package repro.discover

import repro.{SparkSpec, TestFixtures}
import repro.baseline.{Aurum, D3L}
import repro.core.Cmdl
import repro.lake.ColRef
import repro.profile.{ColumnProfile, Profiler, RawColumn, Tags}
import repro.sketch.{LshEnsemble, MinHash, SeedLshEnsemble}

class JoinDiscoverySpec extends SparkSpec {

  private lazy val cmdl = TestFixtures.cmdlPharma
  private lazy val drugbank = cmdl.profilesIn("DrugBank")
  private lazy val index = new JoinDiscovery.SyntacticIndex(drugbank)

  test("syntactic index finds the PK column for a skewed FK query") {
    val fk = cmdl.colByRef("drug_interactions.drug_id")
    val top = index.topK(fk, 15).map(_._1)
    assert(top.contains(ColRef("drugs", "drug_id")))
  }

  test("containment score of a contained FK is near 1") {
    val fk = cmdl.colByRef("drug_interactions.drug_id")
    val hits = index.topK(fk, 15).toMap
    assert(hits.get(ColRef("drugs", "drug_id")).exists(_ > 0.8))
  }

  test("topK never returns columns of the query's own table") {
    val q = cmdl.colByRef("drugs.drug_id")
    assert(index.topK(q, 20).forall(_._1.table != "drugs"))
  }

  test("topK scores are sorted descending") {
    val q = cmdl.colByRef("drugs.drug_id")
    val scores = index.topK(q, 15).map(_._2)
    assert(scores.sliding(2).forall(p => p.size < 2 || p.head >= p(1)))
  }

  test("topK respects k") {
    val q = cmdl.colByRef("drugs.drug_id")
    assert(index.topK(q, 3).size <= 3)
  }

  test("unrelated columns do not reach high containment scores") {
    val q = cmdl.colByRef("drugs.drug_name")
    val hits = index.topK(q, 10)
    // drug names only live in drugs + synthetic variants; within DrugBank no
    // other column shares the domain
    assert(hits.forall(_._2 < 1.01))
  }

  test("pkfk finds the clean FK→PK links of DrugBank") {
    val links = JoinDiscovery.pkfk(drugbank)
    assert(links.contains((ColRef("drugs", "drug_id"), ColRef("drug_interactions", "drug_id"))))
    assert(links.contains((ColRef("trials", "trial_id"), ColRef("trial_outcomes", "trial_id"))))
  }

  test("pkfk tolerates duplicate-bearing PKs (CMDL's relaxed key-ness)") {
    val links = JoinDiscovery.pkfk(drugbank)
    // enzymes.enzyme_id has ~8% duplicate rows; CMDL still accepts it as key
    assert(links.contains((ColRef("enzymes", "enzyme_id"), ColRef("enzyme_targets", "enzyme_id"))))
  }

  test("pkfk rejects pairs with dissimilar names") {
    val chembl = cmdl.profilesIn("ChEMBL")
    val links = JoinDiscovery.pkfk(chembl)
    // record_id draws from the molregno space but is name-dissimilar
    assert(!links.contains((ColRef("molecule_dictionary", "molregno"), ColRef("compound_records", "record_id"))))
  }

  test("pkfk keeps name-similar true links in ChEMBL") {
    val chembl = cmdl.profilesIn("ChEMBL")
    val links = JoinDiscovery.pkfk(chembl)
    assert(links.contains((ColRef("molecule_dictionary", "molregno"), ColRef("compound_properties", "molregno"))))
  }

  test("numeric PK-FK rule fires on ChEBI ranges") {
    val chebi = cmdl.profilesIn("ChEBI")
    val links = JoinDiscovery.pkfk(chebi)
    assert(links.contains((ColRef("compounds", "id"), ColRef("names", "compound_id"))))
  }

  test("numeric rule rejects below-threshold range overlap") {
    val chebi = cmdl.profilesIn("ChEBI")
    val links = JoinDiscovery.pkfk(chebi)
    // structures.compound_id covers only ~41% of the PK range
    assert(!links.contains((ColRef("compounds", "id"), ColRef("structures", "compound_id"))))
  }

  test("numeric rule is shared verbatim with Aurum (ChEBI parity)") {
    val chebi = cmdl.profilesIn("ChEBI")
    val cmdlLinks = JoinDiscovery.pkfk(chebi)
    val aurumLinks = repro.baseline.Aurum.pkfk(chebi)
    assert(cmdlLinks === aurumLinks)
  }

  test("pkfk produces false positives between near-unique FK columns") {
    val links = JoinDiscovery.pkfk(drugbank)
    val gt = TestFixtures.pharma.pkfkBenches.find(_.id == "2D-DrugBank").get.gt
    assert((links -- gt).nonEmpty, "expected CMDL to over-report on duplicate-ridden DrugBank")
  }

  test("topK ranks a small column wholly inside the query first past k + 32 larger overlaps") {
    // 60 big columns hold 60% of the query's values and rank above the small
    // one by query→candidate containment; the small one is contained in the
    // query, so its max-direction containment is the highest of all
    val q = (0 until 1000).map(i => s"v$i")
    val cols = RawColumn("c", "query", "key", "id", q) +:
      RawColumn("c", "small", "key", "id", q.take(400)) +:
      (0 until 60).map(t => RawColumn("c", f"big$t%02d", "key", "id", q.take(600) ++ (0 until 1400).map(i => s"f${t}_$i")))
    val profiles = cols.map(Profiler.profileColumn)
    val top = new JoinDiscovery.SyntacticIndex(profiles).topK(profiles.head, 10)
    assert(top.size === 10)
    assert(top.head._1 === ColRef("small", "key"), top)
    assert(top.tail.forall(_._2 < top.head._2))
  }

  test("cmdl, aurum and d3l topK equal the seed's on every joinable column of Pharma and UK-Open") {
    for (c <- Seq(cmdl, TestFixtures.cmdlUkOpen)) {
      val seedCmdl = new SeedJoins.CmdlIndex(c.colProfiles)
      val seedAurum = new SeedJoins.AurumIndex(c.colProfiles)
      val seedD3l = new SeedJoins.D3lIndex(c.colProfiles)
      val aurum = new Aurum.SyntacticIndex(c.colProfiles)
      val d3l = new D3L.SyntacticIndex(c.colProfiles)
      for (q <- joinable(c)) {
        assert(c.syntacticIndex.topK(q, 10) === seedCmdl.topK(q, 10).filter(_._2 > 0), q.ref)
        assert(aurum.topK(q, 10) === seedAurum.topK(q, 10), q.ref)
        assert(d3l.topK(q, 10) === seedD3l.topK(q, 10), q.ref)
      }
    }
  }

  test("cmdl and aurum pkfk links equal the seed's on every Pharma collection") {
    val collections = cmdl.colProfiles.map(_.collection).distinct
    assert(collections.size >= 3)
    for (coll <- collections) {
      val ps = cmdl.profilesIn(coll)
      assert(JoinDiscovery.pkfk(ps) === SeedJoins.cmdlPkfk(ps), coll)
      assert(Aurum.pkfk(ps) === SeedJoins.aurumPkfk(ps), coll)
    }
  }

  test("no topK returns a score of 0 or below, not even for an LSH bucket collision") {
    // two one-value columns whose minhash values differ but whose 32-bit LSH
    // buckets collide on one row: the seed's index made the pair a candidate
    // with estimated containment 0; the index compares row values, so it does not
    val Seq(a, b) = Seq("ta" -> "k1919", "tb" -> "k7799").map { case (t, v) =>
      Profiler.profileColumn(RawColumn("c", t, "key", "id", Seq(v)))
    }
    val entries = Seq(LshEnsemble.Entry(b.ref, b.sig, b.card))
    assert(new SeedLshEnsemble(entries).queryThreshold(a.sig, a.card, 0.0).nonEmpty,
      "the two values no longer share a bucket")
    assert(new LshEnsemble(entries).candidates(a.sig).isEmpty)
    assert(MinHash.estJaccard(a.sig, b.sig) === 0.0)
    assert(new JoinDiscovery.SyntacticIndex(Seq(a, b)).topK(a, 10).isEmpty)
    for (c <- Seq(cmdl, TestFixtures.cmdlUkOpen)) {
      val aurum = new Aurum.SyntacticIndex(c.colProfiles)
      val d3l = new D3L.SyntacticIndex(c.colProfiles)
      for (q <- joinable(c); topK <- Seq(c.syntacticIndex.topK _, aurum.topK _, d3l.topK _))
        assert(topK(q, 10).forall(_._2 > 0), q.ref)
    }
  }

  private def joinable(c: Cmdl): Seq[ColumnProfile] = c.colProfiles.filter(_.hasTag(Tags.Joinable)).sortBy(_.ref)
}
