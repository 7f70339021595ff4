package repro.core

import repro.{SparkSpec, TestFixtures}
import repro.discover.UnionDiscovery
import repro.ekg.Srql
import repro.joint.{Mlp, TripletTraining}
import repro.lake.{Lake, LakeTable}
import repro.profile.{RawColumn, RawDoc}

class CmdlSpec extends SparkSpec {

  private lazy val cmdl = TestFixtures.cmdlPharma
  private lazy val labels = cmdl.weakLabels(sampleFrac = 0.35, seed = 5)
  private lazy val joint = cmdl.trainJoint(labels,
    TripletTraining.Config(maxEpochs = 40, batchFrac = 0.2))

  test("profiling covers both modalities") {
    assert(cmdl.colProfiles.size === TestFixtures.pharma.rawColumns.size)
    assert(cmdl.docProfiles.size === TestFixtures.pharma.docs.size)
  }

  test("weak labels estimate an accuracy per labeling function") {
    assert(labels.lfAccuracies.size === 4)
    assert(labels.lfAccuracies.forall(a => a > 0 && a < 1))
  }

  test("weak labels sample both modalities") {
    assert(labels.sampledDocs.nonEmpty && labels.sampledCols.nonEmpty)
    assert(labels.sampledDocs.size < cmdl.docProfiles.size)
  }

  test("relatedness of a ground-truth pair exceeds a random pair on average") {
    val bench = TestFixtures.pharma.docBenches.head
    val rel = labels.rel(cmdl) _
    val gtPairs = bench.docColumns.toSeq.sortBy(_._1).take(30)
      .flatMap { case (d, cols) => cols.map(c => (d, c.render)) }
    val gtMean = gtPairs.map { case (d, c) => rel(d, c) }.sum / gtPairs.size
    val offPairs = gtPairs.map { case (d, _) => (d, "drugs.drug_type") }
    val offMean = offPairs.map { case (d, c) => rel(d, c) }.sum / offPairs.size
    assert(gtMean > offMean, s"gt=$gtMean vs off=$offMean")
  }

  test("relatedness of unknown DEs is zero") {
    assert(labels.rel(cmdl)("nope", "nada.zip") === 0.0)
  }

  test("joint training converges within the epoch budget") {
    assert(joint.epochs > 0 && joint.epochs <= 40)
    assert(joint.lossHistory.nonEmpty)
  }

  test("joint embeddings exist for every doc and text column") {
    assert(joint.docEmb.size === cmdl.docProfiles.size)
    assert(joint.colEmb.size === cmdl.lfs.textCols.size)
    assert(joint.docEmb.values.forall(_.length === 100))
  }

  test("cross-modal search via joint space returns related tables for a linked doc") {
    val linked = TestFixtures.pharma.docBenches.head.docColumns.toSeq.sortBy(_._1)
    assert(linked.nonEmpty)
    val srql = new Srql(cmdl, Some(joint))
    for ((docId, gtCols) <- linked) {
      val r = srql.crossModalSearch(docId, topn = 8)
      assert(r.names.toSet.intersect(gtCols.map(_.table)).nonEmpty, s"$docId: ${r.names} misses ${gtCols.map(_.table)}")
    }
  }

  test("srql content search over text mode returns documents") {
    val srql = new Srql(cmdl)
    val someValue = TestFixtures.pharma.docs.head.title.split(" ").last
    val r = srql.contentSearch(someValue, "Text", topn = 5)
    assert(r.items.size <= 5)
  }

  test("srql five-step pipeline of Fig. 1 runs end to end") {
    val srql = new Srql(cmdl, Some(joint))
    val bench = TestFixtures.pharma.docBenches.head
    val seedDoc = bench.docColumns.keys.toSeq.sorted.head
    val keyword = cmdl.docById(seedDoc).bag.head
    val r1 = srql.contentSearch(keyword, "Text", topn = 3)
    assert(r1.size > 0)
    val r2 = srql.crossModalSearch(r1(1), topn = 3)
    assert(r2.size > 0)
    val r4 = srql.pkfk(r2(1), topn = 3)
    val r5 = if (r4.size > 0) srql.unionable(r4(1), topn = 2) else srql.unionable(r2(1), topn = 2)
    assert(r5 != null)
    assert(srql.ekg.size > 0)
  }

  test("a repeated srql query leaves the EKG's size unchanged") {
    val srql = new Srql(cmdl)
    val doc = cmdl.docProfiles.minBy(_.id)
    def ask(): Unit = {
      srql.contentSearch(TestFixtures.pharma.docs.head.title, "Text")
      srql.contentSearch(TestFixtures.pharma.docs.head.title, "Table")
      srql.pkfk(srql.crossModalSearch(doc.id, topn = 5)(1), topn = 5)
    }
    ask()
    val edges = srql.ekg.size
    assert(edges > 0)
    ask()
    assert(srql.ekg.size === edges)
  }

  test("srql content search rejects a mode other than Text or Table, naming both") {
    val e = intercept[IllegalArgumentException](new Srql(cmdl).contentSearch("aspirin", "table"))
    assert(e.getMessage.contains("unknown content_search mode 'table'; expected Text or Table"))
  }

  test("srql crossModalSearch rejects unknown documents") {
    val srql = new Srql(cmdl)
    intercept[IllegalArgumentException] { srql.crossModalSearch("ghost", 3) }
  }

  test("pair features are bounded") {
    val d = cmdl.docProfiles.head
    val c = cmdl.lfs.textCols.head
    assert(cmdl.pairFeatures(d, c).forall(f => f >= 0.0 && f <= 1.0))
  }

  test("relRows equals rel bit for bit on every (doc, text column) pair") {
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    for (c <- Seq(cmdl, TestFixtures.cmdlUkOpen)) {
      val wl = if (c eq cmdl) labels else c.weakLabels()
      val (rel, rows) = (wl.rel(c) _, wl.relRows(c))
      assert(rows.length === c.docProfiles.size)
      for ((d, row) <- c.docProfiles.zip(rows)) {
        assert(row.length === c.lfs.textCols.size)
        for ((col, x) <- c.lfs.textCols.zip(row)) assert(bits(x) === bits(rel(d.id, col.ref)), s"${d.id} ${col.ref}")
      }
    }
  }

  /** `weakLabels()`'s message on `lake`, which lacks documents, text columns or both. */
  private def weakLabelsFailure(lake: Lake): String =
    intercept[IllegalArgumentException](new Cmdl(spark, lake).weakLabels()).getMessage

  test("weakLabels on an empty lake fails, naming both empty sides") {
    assert(weakLabelsFailure(tinyLake(Seq.empty)) === "requirement failed: weak labelling needs documents and " +
      "text-searchable columns; the lake has 0 documents and 0 text columns")
  }

  test("weakLabels on a lake without documents fails, naming the empty side") {
    val texts = cmdl.lfs.textCols.size
    assert(weakLabelsFailure(TestFixtures.pharma.copy(docs = Vector.empty))
      .endsWith(s"the lake has 0 documents and $texts text columns"))
  }

  test("weakLabels on a lake without tables fails, naming the empty side") {
    val docs = cmdl.docProfiles.size
    assert(weakLabelsFailure(TestFixtures.pharma.copy(tables = Vector.empty))
      .endsWith(s"the lake has $docs documents and 0 text columns"))
  }

  /** The `Cmdl` of a lake with neither tables nor documents. */
  private lazy val empty = new Cmdl(spark, tinyLake(Seq.empty))

  test("new Cmdl on an empty lake succeeds, with no profiles and no text columns") {
    assert(empty.colProfiles.isEmpty && empty.docProfiles.isEmpty && empty.lfs.textCols.isEmpty)
  }

  test("every discovery index of an empty lake answers empty") {
    assert(empty.unionIndex.topK("drugs", 10, UnionDiscovery.ensembleScore).isEmpty)
    assert(empty.bm25Docs.query(Seq("aspirin"), 10).isEmpty)
    // profiles and documents of another lake as queries
    for (p <- cmdl.colProfiles) assert(empty.syntacticIndex.topK(p, 10).isEmpty, p.ref)
    for (d <- cmdl.docProfiles.take(20)) assert(empty.soloTables.top(d.contentEmb, 10).isEmpty, d.id)
  }

  test("srql on an empty lake answers empty and records no edge") {
    val srql = new Srql(empty)
    assert(srql.contentSearch("aspirin eases pain", "Text").items.isEmpty)
    assert(srql.contentSearch("aspirin eases pain", "Table").items.isEmpty)
    assert(srql.pkfk("drugs", topn = 10).items.isEmpty)
    assert(srql.unionable("drugs", topn = 10).items.isEmpty)
    assert(srql.ekg.size === 0)
  }

  test("srql cross-modal search on an empty lake fails, naming the unknown document") {
    val e = intercept[IllegalArgumentException](new Srql(empty).crossModalSearch("d1", topn = 3))
    assert(e.getMessage === "unknown document d1")
  }

  private val drugNames = Seq("aspirin", "ibuprofen", "naproxen", "codeine", "morphine", "insulin")

  /** One table per (collection, table), in order of first mention, each column holding `drugNames`. */
  private def tinyLake(columns: Seq[(String, String, String)], docs: Seq[RawDoc] = Seq.empty): Lake =
    Lake("tiny", columns.map(c => (c._1, c._2)).distinct.map { case (collection, table) =>
      LakeTable(collection, table, columns.collect { case (`collection`, `table`, column) =>
        RawColumn(collection, table, column, "text", drugNames)
      }.toVector)
    }.toVector, docs.toVector)

  test("two columns sharing a table.column ref fail construction, naming both collections") {
    val lake = tinyLake(Seq(("DrugBank", "drugs", "name"), ("ChEMBL", "drugs", "name")))
    val e = intercept[IllegalArgumentException](new Cmdl(spark, lake))
    assert(e.getMessage.contains("column ref 'drugs.name' occurs in collections 'DrugBank' and 'ChEMBL'"))
  }

  test("two documents sharing an id fail construction, naming both collections") {
    val lake = tinyLake(Seq(("DrugBank", "drugs", "name")),
      Seq(RawDoc("PubMed", "d1", "aspirin trial", "aspirin eases pain"),
        RawDoc("Reviews", "d1", "insulin review", "insulin lowers glucose")))
    val e = intercept[IllegalArgumentException](new Cmdl(spark, lake))
    assert(e.getMessage.contains("document id 'd1' occurs in collections 'PubMed' and 'Reviews'"))
  }

  test("srql content search in table mode keeps a dotted column name inside its table") {
    val srql = new Srql(new Cmdl(spark, tinyLake(Seq(("c", "t", "dose.mg")))))
    assert(srql.contentSearch("aspirin", "Table", topn = 5).names === Seq("t"))
  }

  test("srql content search ranks every column hit, not the first 6 per table asked for") {
    // 77 equal hits: 60 of them would cover only 9 tables
    val tables = (0 until 11).map(t => f"t$t%02d")
    val srql = new Srql(new Cmdl(spark, tinyLake(for (t <- tables; c <- 0 until 7) yield ("c", t, s"name$c"))))
    assert(srql.contentSearch("aspirin", "Table", topn = 10).names === tables.take(10))
  }

  test("srql pkfk ranks every join, so six equal columns of one table do not hide the next table") {
    val srql = new Srql(new Cmdl(spark, tinyLake(
      Seq(("c", "q", "key"), ("c", "b", "key")) ++ (0 until 6).map(i => ("c", "a", s"key$i")))))
    assert(srql.pkfk("q", topn = 2).items === Seq("a" -> 1.0, "b" -> 1.0))
  }

  test("srql cross-modal search scores a column without a joint embedding 0 at the model's width") {
    val c = new Cmdl(spark, tinyLake(Seq(("c", "t", "name"), ("c", "u", "name")),
      Seq(RawDoc("PubMed", "d1", "aspirin trial", "aspirin eases pain"))))
    val j = c.Joint(new Mlp(outDim = 8), 0, Vector.empty, Map("d1" -> Array.fill(8)(1f)), Map.empty,
      TripletTraining.Stats(0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    val r = new Srql(c, Some(j)).crossModalSearch("d1", topn = 3)
    assert(r.items === Seq("t" -> 0.0, "u" -> 0.0))
  }
}
