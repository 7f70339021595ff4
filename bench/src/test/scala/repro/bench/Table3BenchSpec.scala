package repro.bench

import repro.SparkSpec

/** Table 3 — syntactic join discovery: Aurum vs D3L vs CMDL (R-precision). */
class Table3BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table3(BenchFixtures.ctx)

  test("Table 3: syntactic join discovery (ours vs paper)") {
    println("\n" + TableBenches.header(3))
    println(TableBenches.renderTable3(rows))
    assert(rows.map(_.benchmark) === Seq("2A", "2B", "2C-SS", "2C-MS", "2C-LS"))
  }

  test("Table 3 shape: CMDL never loses to Aurum or D3L") {
    for (r <- rows) {
      assert(r.cmdl >= r.aurum - 0.03, s"${r.benchmark}: cmdl ${r.cmdl} < aurum ${r.aurum}")
      assert(r.cmdl >= r.d3l - 0.03, s"${r.benchmark}: cmdl ${r.cmdl} < d3l ${r.d3l}")
    }
  }

  test("Table 3 shape: the containment edge opens under skew (2B, 2C-LS)") {
    val b2 = rows.find(_.benchmark == "2B").get
    val ls = rows.find(_.benchmark == "2C-LS").get
    assert(b2.cmdl > b2.aurum + 0.1, s"2B: ${b2.cmdl} vs ${b2.aurum}")
    assert(ls.cmdl > ls.aurum + 0.1, s"2C-LS: ${ls.cmdl} vs ${ls.aurum}")
  }

  test("Table 3 shape: near-parity on the balanced benchmark (2C-SS)") {
    val ss = rows.find(_.benchmark == "2C-SS").get
    assert(math.abs(ss.cmdl - ss.aurum) < 0.25, s"2C-SS: ${ss.cmdl} vs ${ss.aurum}")
  }

  test("Table 3 shape: everyone is weak on the manually-annotated 2A") {
    val r = rows.find(_.benchmark == "2A").get
    assert(r.aurum < 0.6 && r.d3l < 0.6 && r.cmdl < 0.7)
  }
}
