package repro.lake

import org.scalatest.funsuite.AnyFunSuite

class BenchStatsSpec extends AnyFunSuite {

  private val scale = 0.3
  private lazy val pharma = LakeGen.pharma(scale)
  private lazy val ukOpen = LakeGen.ukOpen(scale)
  private lazy val mlOpen = LakeGen.mlOpen(scale)
  private lazy val t1 = BenchStats.table1(Seq(pharma, ukOpen, mlOpen))
  private lazy val t2 = BenchStats.table2(pharma, ukOpen, mlOpen)

  test("table1 has one row per collection") {
    assert(t1.map(_.collection).toSet === Set(
      "DrugBank", "ChEMBL", "ChEBI", "PubMed", "DrugBank-Synthetic",
      "Govt. data", "Synthetic text", "SS", "MS", "LS", "Reviews"))
  }

  test("table1 text collections have no tables and doc-count DEs") {
    val pm = t1.find(_.collection == "PubMed").get
    assert(pm.numTables === 0)
    assert(pm.numDEs === pharma.docs.count(_.collection == "PubMed"))
    assert(pm.format === "Text")
  }

  test("table1 tabular DEs are column counts") {
    val db = t1.find(_.collection == "DrugBank").get
    val drugbank = pharma.tables.filter(_.collection == "DrugBank")
    assert(db.numDEs === drugbank.map(_.columns.size).sum)
    assert(db.numTables === drugbank.size)
  }

  test("table1 numeric percentage is sane and highest for LS") {
    val ls = t1.find(_.collection == "LS").get
    assert(t1.forall(r => r.pctNumeric >= 0 && r.pctNumeric <= 100))
    assert(ls.pctNumeric > t1.find(_.collection == "SS").get.pctNumeric)
  }

  test("table1 sizes are positive") {
    assert(t1.forall(_.sizeBytes > 0))
  }

  test("table2 covers all nine benchmarks") {
    assert(t2.map(_.benchmark).toSet === Set(
      "1A", "1B", "1C", "2A", "2B", "2C-SS", "2C-MS", "2C-LS",
      "2D-DrugBank", "2D-ChEMBL", "2D-ChEBI", "3A", "3B"))
  }

  test("table2 query counts are positive") {
    assert(t2.forall(_.numQueries > 0))
  }

  test("table2 pkfk benchmarks use a single query") {
    assert(t2.filter(_.category.contains("PK-FK")).forall(_.numQueries === 1))
  }

  test("mQCR is within (0, 1] for join benchmarks") {
    val joins = t2.filter(_.category.contains("syntactic"))
    assert(joins.forall(r => r.mQcr > 0 && r.mQcr <= 1))
  }

  test("mQCR ordering mirrors the paper: 2B and 2C-LS are skewed, 2C-SS is not") {
    def q(b: String) = t2.find(_.benchmark == b).get.mQcr
    assert(q("2B") < q("2C-SS"))
    assert(q("2C-LS") < q("2C-MS"))
    assert(q("2C-MS") < q("2C-SS"))
    assert(q("2C-SS") > 0.5)
  }

  test("doc benchmarks have small mQCR (documents are small vs columns)") {
    val docRows = t2.filter(_.category == "Doc-to-Table")
    assert(docRows.forall(_.mQcr < 0.5))
  }

  test("2A is less skewed than 2B, as in the paper") {
    def q(b: String) = t2.find(_.benchmark == b).get.mQcr
    assert(q("2A") > q("2B"))
  }

  test("avg answer sizes are positive") {
    assert(t2.forall(_.avgAnswerSize > 0))
  }

  test("median helper handles odd, even and empty input") {
    assert(BenchStats.median(Seq(3.0, 1.0, 2.0)) === 2.0)
    assert(BenchStats.median(Seq(1.0, 2.0, 3.0, 4.0)) === 2.5)
    assert(BenchStats.median(Nil) === 0.0)
  }

  test("columnCards counts exact distinct lowercased values") {
    val cards = BenchStats.columnCards(pharma)
    val drugs = pharma.tables.find(_.name == "drugs").get
    val idCol = drugs.columns.find(_.column == "drug_id").get
    assert(cards(ColRef("drugs", "drug_id")) === idCol.values.map(_.toLowerCase).distinct.size)
  }
}
