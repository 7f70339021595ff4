package repro.bench

import repro.SparkSpec

/** Table 4 — PK-FK join discovery: Aurum vs CMDL per Pharma database. */
class Table4BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table4(BenchFixtures.ctx)

  test("Table 4: PK-FK discovery (ours vs paper)") {
    println("\n" + TableBenches.header(4))
    println(TableBenches.renderTable4(rows))
    assert(rows.map(_.database).toSet === Set("DrugBank", "ChEMBL", "ChEBI"))
  }

  test("Table 4 shape: CMDL trades precision for much higher recall on DrugBank") {
    val r = rows.find(_.database == "DrugBank").get
    assert(r.cmdl.recall > r.aurum.recall + 0.2, s"recall ${r.cmdl.recall} vs ${r.aurum.recall}")
    assert(r.cmdl.precision < r.aurum.precision + 0.05, s"precision ${r.cmdl.precision} vs ${r.aurum.precision}")
  }

  test("Table 4 shape: CMDL's schema filter lifts precision on ChEMBL") {
    val r = rows.find(_.database == "ChEMBL").get
    assert(r.cmdl.precision > r.aurum.precision, s"${r.cmdl.precision} vs ${r.aurum.precision}")
    assert(r.cmdl.recall >= r.aurum.recall - 0.05)
  }

  test("Table 4 shape: identical results on the numeric-only ChEBI") {
    val r = rows.find(_.database == "ChEBI").get
    assert(r.cmdl === r.aurum)
  }
}
