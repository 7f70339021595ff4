package repro.baseline

import repro.{SparkSpec, TestFixtures}
import repro.lake.ColRef
import repro.sketch.Similarity

class BaselineSpec extends SparkSpec {

  private lazy val cmdl = TestFixtures.cmdlPharma
  private lazy val drugbank = cmdl.profilesIn("DrugBank")

  // ---------------- Aurum ----------------

  test("aurum scores the skewed FK-PK pair by its tiny jaccard, CMDL by containment") {
    val fk = cmdl.colByRef("drug_interactions.drug_id") // small FK inside a big PK
    val pk = ColRef("drugs", "drug_id")
    val aurumScore = new Aurum.SyntacticIndex(drugbank).topK(fk, 40).toMap.getOrElse(pk, 0.0)
    val cmdlScore = new repro.discover.JoinDiscovery.SyntacticIndex(drugbank)
      .topK(fk, 40).toMap.getOrElse(pk, 0.0)
    assert(cmdlScore > 0.8, s"containment score was $cmdlScore")
    assert(aurumScore < 0.4, s"jaccard score was $aurumScore")
  }

  test("aurum finds balanced joins just fine") {
    val idx = new Aurum.SyntacticIndex(drugbank)
    val q = cmdl.colByRef("enzyme_targets.drug_id")
    assert(idx.topK(q, 6).nonEmpty)
  }

  test("aurum pkfk demands strict key uniqueness — misses duplicate-bearing PKs") {
    val links = Aurum.pkfk(drugbank)
    // enzymes.enzyme_id has ~8% duplicates → uniqueness < .95 → skipped
    assert(!links.exists(_._1 == ColRef("enzymes", "enzyme_id")))
  }

  test("aurum pkfk finds high-jaccard clean links") {
    val links = Aurum.pkfk(drugbank)
    assert(links.contains((ColRef("trials", "trial_id"), ColRef("trial_outcomes", "trial_id"))))
  }

  test("aurum pkfk has no name filter: ChEMBL shared-id spaces create false links") {
    val chembl = cmdl.profilesIn("ChEMBL")
    val aurumLinks = Aurum.pkfk(chembl)
    val gt = TestFixtures.pharma.pkfkBenches.find(_.id == "2D-ChEMBL").get.gt
    val falses = aurumLinks -- gt
    assert(falses.nonEmpty)
    // at least one false link involves the name-dissimilar record_id space
    assert(falses.exists { case (p, f) =>
      Set(p.column, f.column).intersect(Set("record_id", "mol_ref", "compound_key")).nonEmpty
    })
  }

  test("aurum union column score is the max of schema and jaccard") {
    val a = cmdl.colByRef("drugs.drug_id")
    val b = cmdl.colByRef("trials.drug_id")
    val s = Aurum.unionColumnScore(a, b)
    assert(s >= Similarity.nameSimilarity(a.column, b.column) - 1e-9)
  }

  // ---------------- D3L ----------------

  test("d3l signals are in [0,1]") {
    val a = cmdl.colByRef("drugs.drug_id")
    val b = cmdl.colByRef("drug_interactions.drug_id")
    val s = D3L.signals(a, b)
    for (x <- Seq(s.name, s.value, s.format, s.numeric)) assert(x >= 0.0 && x <= 1.0)
  }

  test("d3l name signal lifts shared-name joinable pairs above aurum") {
    val a = cmdl.colByRef("drugs.drug_id")
    val b = cmdl.colByRef("drug_conditions.drug_id") // same name, skewed values
    val s = D3L.signals(a, b)
    assert(s.name === 1.0)
    assert(s.value < 0.3) // jaccard is tiny under skew
    assert(D3L.combine(s) > s.value)
  }

  test("d3l format similarity separates numeric from text columns") {
    val num = cmdl.colByRef("prices.unit_price")
    val text = cmdl.colByRef("drugs.drug_name")
    val sameish = D3L.formatSimilarity(num, cmdl.colByRef("dosages.dose_mg"))
    val differ = D3L.formatSimilarity(num, text)
    assert(sameish > differ)
  }

  test("d3l combine of a perfect-signal pair is 1") {
    val s = D3L.Signals(1.0, 1.0, 1.0, 0.0)
    assert(math.abs(D3L.combine(s) - 1.0) < 1e-9)
  }

  test("d3l combine of an all-zero pair is 0") {
    val s = D3L.Signals(0.0, 0.0, 0.0, 0.0)
    assert(D3L.combine(s) < 0.01)
  }

  test("d3l topK excludes own table and respects k") {
    val idx = new D3L.SyntacticIndex(drugbank)
    val q = cmdl.colByRef("drugs.drug_id")
    val hits = idx.topK(q, 5)
    assert(hits.size <= 5)
    assert(hits.forall(_._1.table != "drugs"))
  }
}
