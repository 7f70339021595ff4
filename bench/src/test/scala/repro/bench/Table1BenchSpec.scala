package repro.bench

import repro.SparkSpec

/** Table 1 — overview of the evaluation datasets (scaled-down lakes). */
class Table1BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table1(BenchFixtures.ctx.lakes)

  test("Table 1: lake overview (ours vs paper)") {
    println("\n" + TableBenches.header(1))
    println(TableBenches.render(rows))
    assert(rows.size === 12) // header + 11 collections
  }

  test("Table 1: every paper collection is present") {
    val collections = rows.drop(1).map(_(1)).toSet
    assert(TableBenches.Table1Paper.keySet.subsetOf(collections))
  }

  test("Table 1: numeric fraction ordering matches the paper (LS > MS > SS ranks high)") {
    def numeric(coll: String): Double =
      rows.drop(1).find(_(1) == coll).get.apply(6).split("/").head.toDouble
    assert(numeric("LS") > numeric("SS"))
    assert(numeric("ChEMBL") > numeric("DrugBank"))
  }
}
