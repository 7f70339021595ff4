package repro.bench

import repro.SparkSpec

/** Table 2 — overview of the evaluation benchmarks, including mQCR. */
class Table2BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table2(BenchFixtures.ctx.lakes)

  test("Table 2: benchmark overview (ours vs paper)") {
    println("\n" + TableBenches.header(2))
    println(TableBenches.render(rows))
    assert(rows.size === 14) // header + 13 benchmark rows (2C and 2D split out)
  }

  test("Table 2: skewed benchmarks have small mQCR, as in the paper") {
    def mqcr(b: String): Double =
      rows.drop(1).find(_(1) == b).get.apply(6).split("/").head.toDouble
    assert(mqcr("2B") < mqcr("2A"))
    assert(mqcr("2C-LS") < mqcr("2C-MS"))
    assert(mqcr("2C-MS") < mqcr("2C-SS"))
    assert(mqcr("1B") < 0.2 && mqcr("1C") < 0.2)
  }
}
