package repro.profile

import org.scalacheck.{Gen, Prop, Test => Check}

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.embed.WordVectors
import repro.lake.ColRef
import repro.sketch.MinHash
import repro.text.{DocFreqOracle, Tokenizer, TokenizerSpec}

class ProfilerSpec extends SparkSpec {

  private val textCol = RawColumn("c", "drugs", "drug_name", "text",
    (1 to 50).map(i => s"drugmed$i") ++ Seq("drugmed1", "drugmed2")) // 2 dup rows
  private val numCol = RawColumn("c", "prices", "unit_price", "numeric",
    Seq("5", "10", "3", "20", "10"))
  private val catCol = RawColumn("c", "drugs", "drug_type", "categorical",
    Seq.fill(100)("biotech") ++ Seq.fill(100)("vaccine"))
  private val dateCol = RawColumn("c", "trials", "start_date", "date",
    (1 to 30).map(i => s"2020-01-$i"))
  private val longText = RawColumn("c", "drugs", "description", "text",
    (1 to 20).map(i => s"a very long clinical monograph paragraph number $i that easily exceeds the joinable length limit"))

  test("profileColumn counts rows, cardinality and uniqueness") {
    val p = Profiler.profileColumn(textCol)
    assert(p.rows === 52)
    assert(p.card === 50)
    assert(math.abs(p.uniqueness - 50.0 / 52) < 1e-9)
  }

  test("profileColumn signature matches MinHash over distinct lowercased values") {
    val p = Profiler.profileColumn(textCol)
    val expected = MinHash.signature(textCol.values.map(_.toLowerCase).distinct)
    assert(p.sig.toSeq === expected.toSeq)
  }

  test("profileColumn numeric stats populated for numeric columns") {
    val p = Profiler.profileColumn(numCol)
    assert(p.numMin === 3.0 && p.numMax === 20.0)
  }

  test("profileColumn numeric stats NaN for text columns") {
    val p = Profiler.profileColumn(textCol)
    assert(p.numMin.isNaN && p.numMax.isNaN)
  }

  test("text column with enough distinct values is tagged for text search") {
    assert(Profiler.profileColumn(textCol).hasTag(Tags.TextSearch))
  }

  test("categorical column with few distinct values is not text-searchable") {
    assert(!Profiler.profileColumn(catCol).hasTag(Tags.TextSearch))
  }

  test("date columns are excluded from join discovery") {
    assert(!Profiler.profileColumn(dateCol).hasTag(Tags.Joinable))
  }

  test("long-text columns are excluded from join discovery") {
    assert(!Profiler.profileColumn(longText).hasTag(Tags.Joinable))
  }

  test("id columns are joinable") {
    assert(Profiler.profileColumn(textCol).hasTag(Tags.Joinable))
  }

  test("content and metadata embeddings are 100-dimensional") {
    val p = Profiler.profileColumn(textCol)
    assert(p.contentEmb.length === 100 && p.metaEmb.length === 100)
  }

  test("format features capture digit fraction difference") {
    val pNum = Profiler.profileColumn(numCol)
    val pText = Profiler.profileColumn(textCol)
    assert(pNum.formatFeats(1) > 0.9)  // all digits
    assert(pText.formatFeats(1) < 0.5) // mostly letters
  }

  test("ref renders table.column") {
    assert(Profiler.profileColumn(textCol).ref === "drugs.drug_name")
  }

  test("ColRef renders every column as its profile's ref, dotted names included") {
    val dotted = Profiler.profileColumn(RawColumn("c", "v1.2", "dose.mg", "numeric", Seq("1", "2")))
    for (p <- TestFixtures.cmdlPharma.colProfiles :+ dotted) assert(ColRef(p.table, p.column).render === p.ref)
    assert(dotted.ref === "v1.2.dose.mg")
  }

  test("profileColumns over Spark matches the driver-side profile") {
    val fromSpark = Profiler.profileColumns(spark, Seq(textCol, numCol, catCol))
    val local = Seq(textCol, numCol, catCol).map(Profiler.profileColumn)
    assert(fromSpark.map(_.ref).toSet === local.map(_.ref).toSet)
    val sparkByRef = fromSpark.map(p => p.ref -> p).toMap
    for (lp <- local) {
      val sp = sparkByRef(lp.ref)
      assert(sp.card === lp.card)
      assert(sp.sig.toSeq === lp.sig.toSeq)
      assert(sp.tags === lp.tags)
    }
  }

  test("profileColumns of empty input is empty") {
    assert(Profiler.profileColumns(spark, Seq.empty).isEmpty)
  }

  test("profileDocs builds bags without stopwords") {
    val docs = Seq(RawDoc("pm", "d1", "Study of drugmed5", "The drug drugmed5 binds strongly."))
    val ps = Profiler.profileDocs(spark, docs)
    assert(ps.size === 1)
    assert(ps.head.bag.contains("drugmed5"))
    assert(!ps.head.bag.contains("the"))
  }

  test("profileDocs applies the corpus doc-frequency filter") {
    val docs = (1 to 10).map(i => RawDoc("pm", s"d$i", s"title$i", s"ubiquitous term plus unique$i"))
    val ps = Profiler.profileDocs(spark, docs)
    // "ubiquitous" lemmatizes to "ubiquitou" and occurs in every doc -> dropped
    assert(ps.forall(p => !p.bag.contains("ubiquitou") && !p.bag.contains("ubiquitous")))
    assert(ps.exists(_.bag.exists(_.startsWith("unique"))))
  }

  /** Bags by doc id from `profileDocs` and from the doc-frequency oracle. */
  private def profiledAndOracleBags(docs: Seq[RawDoc]) = {
    val bags = DocFreqOracle.docFreqFilter(docs.map(d => Tokenizer.bagOfWords(d.title + " " + d.text)))
    (Profiler.profileDocs(spark, docs).map(p => p.id -> p.bag).toMap, docs.map(_.id).zip(bags).toMap)
  }

  private def docs(texts: String*): Seq[RawDoc] =
    texts.zipWithIndex.map { case (t, i) => RawDoc("pm", s"d$i", "", t) }

  test("profileDocs bags equal the doc-frequency oracle's on a fixture lake's documents") {
    val lakeDocs = TestFixtures.pharma.docs
    val (profiled, oracle) = profiledAndOracleBags(lakeDocs)
    val unfiltered = lakeDocs.map(d => Tokenizer.bagOfWords(d.title + " " + d.text).size).sum
    assert(oracle.values.map(_.size).sum < unfiltered, "the filter drops no term of this corpus")
    assert(profiled === oracle)
  }

  test("profileDocs keeps a term in exactly maxDfFrac of the documents, as the oracle does") {
    val (profiled, oracle) = profiledAndOracleBags(docs("kinase zebra", "kinase zebra", "kinase otter", "heron"))
    assert(profiled === oracle)
    assert(profiled("d0") === Seq("zebra")) // zebra: 2 of 4 documents; kinase: 3 of 4
  }

  test("profileDocs keeps a term of one document that only the df > 1 guard saves, as the oracle does") {
    val (profiled, oracle) = profiledAndOracleBags(docs("kinase zebra"))
    assert(profiled === oracle)
    // each term is in 1 of 1 documents, above MaxDfFrac, but in no more than one
    assert(profiled("d0") === Seq("kinase", "zebra"))
  }

  test("profileColumns keeps input order, each profile equal to profileColumn's") {
    val cols = TestFixtures.pharma.rawColumns.reverse
    val profiled = Profiler.profileColumns(spark, cols)
    assert(profiled.map(_.ref) === cols.map(c => s"${c.table}.${c.column}"))
    def fields(p: ColumnProfile) = (p.collection, p.table, p.column, p.dtype, p.rows, p.card, p.uniqueness,
      p.bag, p.tags, p.sig.toSeq, p.contentEmb.toSeq, p.metaEmb.toSeq, p.formatFeats.toSeq,
      java.lang.Double.doubleToRawLongBits(p.numMin), java.lang.Double.doubleToRawLongBits(p.numMax))
    for ((p, c) <- profiled.zip(cols)) assert(fields(p) === fields(Profiler.profileColumn(c)), p.ref)
  }

  test("profileDocs keeps input order and sketches the oracle's bags") {
    val lakeDocs = TestFixtures.pharma.docs.reverse
    val profiled = Profiler.profileDocs(spark, lakeDocs)
    assert(profiled.map(_.id) === lakeDocs.map(_.id))
    val bags = DocFreqOracle.docFreqFilter(lakeDocs.map(d => Tokenizer.bagOfWords(d.title + " " + d.text)))
    for ((p, (d, bag)) <- profiled.zip(lakeDocs.zip(bags))) {
      assert(p.bag === bag && p.card === bag.distinct.size && p.title === d.title, p.id)
      assert(p.sig.sameElements(MinHash.signature(bag.distinct)), p.id)
      assert(p.contentEmb.sameElements(WordVectors.meanPool(bag)), p.id)
      assert(p.metaEmb.sameElements(WordVectors.meanPool(Tokenizer.bagOfWords(d.title))), p.id)
    }
  }

  test("profileDocs of one document keeps every term, repeats included") {
    val Seq(p) = Profiler.profileDocs(spark, Seq(RawDoc("pm", "d1", "kinase", "kinase zebra kinase")))
    assert(p.bag === Seq("kinase", "kinase", "zebra", "kinase"))
    assert(p.card === 2)
  }

  test("profileDocs of documents whose every term is stopped gives empty bags and zero content embeddings") {
    val ps = Profiler.profileDocs(spark, docs("kinase zebra", "zebra kinase", "kinase zebra kinase"))
    assert(ps.size === 3)
    for (p <- ps) {
      assert(p.bag.isEmpty && p.card === 0)
      assert(p.sig.sameElements(MinHash.signature(Seq.empty)))
      assert(p.contentEmb.forall(_ == 0f))
    }
  }

  test("profileDocs keeps metadata embedding from the title only") {
    val docs = Seq(
      RawDoc("pm", "a", "enzyme report", "unrelated words entirely"),
      RawDoc("pm", "b", "enzyme report", "other unrelated body"))
    val ps = Profiler.profileDocs(spark, docs)
    val Seq(pa, pb) = ps.sortBy(_.id)
    assert(repro.embed.WordVectors.cosine(pa.metaEmb, pb.metaEmb) > 0.999)
  }

  test("formatFeats equal the boxed-character expression they replaced, bit for bit") {
    val prop = Prop.forAll(Gen.listOf(TokenizerSpec.mixedText)) { values =>
      val raw = RawColumn("c", "t", "col", "text", values)
      val distinct = raw.normValues.distinct
      val avgLen = if (distinct.isEmpty) 0.0 else distinct.map(_.length).sum.toDouble / distinct.size
      val chars = distinct.flatMap(_.toSeq)
      val fracDigit = if (chars.isEmpty) 0.0 else chars.count(_.isDigit).toDouble / chars.size
      val fracAlpha = if (chars.isEmpty) 0.0 else chars.count(_.isLetter).toDouble / chars.size
      Profiler.profileColumn(raw).formatFeats.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
        Seq(avgLen, fracDigit, fracAlpha).map(java.lang.Double.doubleToRawLongBits)
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res)
  }

  test("nameTokens splits snake and camel case") {
    assert(Profiler.nameTokens("drug_id") === Seq("drug", "id"))
    assert(Profiler.nameTokens("drugName") === Seq("drug", "name"))
  }

  test("column cardinalities via DataFrame aggregation agree with DuckDB oracle") {
    import spark.implicits._
    // blank and space-only cells, surrounding spaces and mixed case; one column is all blanks
    val messy = RawColumn("c", "drugs", "brand", "text",
      Seq("Aspirin", " aspirin ", "ASPIRIN", "", "   ", "Ibuprofen", "ibuprofen ", " Naproxen"))
    val blank = RawColumn("c", "notes", "remark", "text", Seq("", "  "))
    val cols = Seq(messy, blank, numCol, catCol)
    val profiled = Profiler.profileColumns(spark, cols)
      .map(p => (p.table, p.column, p.rows, p.card)).toDF("tbl", "col", "n_rows", "card")
    val cells = cols.flatMap(c => c.values.map(v => (c.table, c.column, v))).toDF("tbl", "col", "value")
    Oracle.assertEquivalent(
      profiled,
      """SELECT tbl, col,
        |  COUNT(CASE WHEN TRIM(value) <> '' THEN 1 END) AS n_rows,
        |  COUNT(DISTINCT CASE WHEN TRIM(value) <> '' THEN LOWER(TRIM(value)) END) AS card
        |FROM cells GROUP BY tbl, col""".stripMargin,
      "cells" -> cells,
    )
  }
}
