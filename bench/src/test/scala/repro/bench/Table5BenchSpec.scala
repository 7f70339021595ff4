package repro.bench

import repro.SparkSpec

/** Table 5 — individual similarity measures for unionability (Relative Recall). */
class Table5BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table5(BenchFixtures.ctx)

  private def rr(bench: String, measure: String): Double =
    rows.find(r => r.benchmark == bench && r.measure == measure).get.rr.rr

  test("Table 5: comparing individual similarity metrics (ours vs paper)") {
    println("\n" + TableBenches.header(5))
    println(TableBenches.renderTable5(rows))
    assert(rows.size === 10)
  }

  test("Table 5 shape: the ensemble is never far below the best single measure") {
    for (b <- Seq("3A", "3B")) {
      val best = Seq("name", "containment", "numeric", "semantic").map(rr(b, _)).max
      assert(rr(b, "ensemble") >= best - 0.1, s"$b: ensemble ${rr(b, "ensemble")} vs best $best")
    }
  }

  test("Table 5 shape: name is strong on 3A, weakened by renaming on 3B") {
    assert(rr("3A", "name") > rr("3B", "name"))
  }

  test("Table 5 shape: semantic beats name on 3B") {
    assert(rr("3B", "semantic") > rr("3B", "name"))
  }

  test("Table 5 shape: numeric is the weakest measure on 3B") {
    val others = Seq("name", "containment", "semantic").map(rr("3B", _))
    assert(others.forall(_ > rr("3B", "numeric")))
  }
}
