package repro.bench

import repro.SparkSpec

/** Table 6 — query throughput of the labeling-function indexes. */
class Table6BenchSpec extends SparkSpec {

  private lazy val rows = TableBenches.table6(BenchFixtures.ctx)

  test("Table 6: labeling-function index throughput (ours vs paper)") {
    println("\n" + TableBenches.header(6))
    println(TableBenches.renderTable6(rows))
    assert(rows.size === 3)
  }

  test("Table 6 shape: all probes achieve interactive throughput") {
    assert(rows.forall(_.qps > 10), rows.map(r => s"${r.function}=${r.qps}").mkString(", "))
  }

  test("Table 6 shape: the semantic ANN probe beats the containment probe") {
    // The paper's full ordering (BM25 slowest) reflects Elasticsearch's RPC
    // overhead, which our in-process substitute does not carry; the robust
    // part of the shape is that the log-time ANN probe outruns the
    // candidate-scanning LSH probe.
    val byF = rows.map(r => r.function -> r.qps).toMap
    assert(byF("Semantic") > byF("Containment"))
  }
}
