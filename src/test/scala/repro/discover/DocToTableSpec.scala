package repro.discover

import repro.{SparkSpec, TestFixtures}
import repro.core.Cmdl
import repro.ekg.Srql
import repro.joint.{Mlp, TripletTraining}
import repro.lake.ColRef
import repro.sketch.MinHash

class DocToTableSpec extends SparkSpec {
  import DocToTable.rankTables

  test("rankTables keeps each table's best score, ranks by (-score, table) and cuts at k") {
    val scores = Seq("b" -> 0.2, "a" -> 0.5, "c" -> 0.9, "b" -> 0.9, "a" -> 0.1, "d" -> 0.3)
    assert(rankTables(scores, 10) === Seq("b" -> 0.9, "c" -> 0.9, "a" -> 0.5, "d" -> 0.3))
    assert(rankTables(scores, 3) === Seq("b" -> 0.9, "c" -> 0.9, "a" -> 0.5))
    assert(rankTables(scores, 0).isEmpty)
    assert(rankTables(Seq.empty, 3).isEmpty)
    // log-likelihood scores are negative: the best is the one nearest 0
    assert(rankTables(Seq("x" -> -3.0, "y" -> -2.0, "x" -> -1.5), 5) === Seq("x" -> -1.5, "y" -> -2.0))
  }

  private val lakes = Seq(TestFixtures.cmdlPharma, TestFixtures.cmdlUkOpen)

  /** Column ref → the column's table, for index hits. */
  private def tableOf(c: Cmdl)(ref: String): String = c.colByRef(ref).table

  test("the Doc→Table rankers equal the seed's on every document of Pharma and UK-Open") {
    for (c <- lakes; d <- c.docProfiles; k <- Seq(1, 3, 10)) {
      val cols = c.lfs.textCols
      val index = c.lfs.bm25Content
      val colOf = (ref: String) => ColRef(tableOf(c)(ref), c.colByRef(ref).column)
      assert(DocToTable.embeddingRank(d.contentEmb, cols, _.contentEmb, k) ===
        SeedTableRanking.embeddingRank(d.contentEmb, cols, _.contentEmb, k), d.id)
      assert(DocToTable.rank(cols, col => MinHash.estContainment(d.sig, d.card, col.sig, col.card), k) ===
        SeedTableRanking.containmentRank(d, cols, k), d.id)
      assert(rankTables(index.query(d.bag, index.size).map { case (ref, s) => (tableOf(c)(ref), s) }, k) ===
        SeedTableRanking.keywordRank(d, index, colOf, k, lmDirichlet = false), d.id)
      assert(rankTables(index.queryLmDirichlet(d.bag, index.size).map { case (ref, s) => (tableOf(c)(ref), s) }, k) ===
        SeedTableRanking.keywordRank(d, index, colOf, k, lmDirichlet = true), d.id)
    }
  }

  test("srql table answers equal the seed's on every document and table of Pharma and UK-Open") {
    for (c <- lakes) {
      val srql = new Srql(c)
      val docs = c.lake.docs
      assert(docs.nonEmpty)
      for (d <- docs) {
        assert(srql.contentSearch(d.title, "Table").items === SeedTableRanking.contentSearch(c, d.title, 10), d.id)
        assert(srql.crossModalSearch(d.id, 10).items ===
          SeedTableRanking.embeddingRank(c.docById(d.id).contentEmb, c.lfs.textCols, _.contentEmb, 10), d.id)
      }
      for (t <- c.colProfiles.map(_.table).distinct.sorted) {
        for (topn <- Seq(3, 10)) assert(srql.pkfk(t, topn).items === SeedTableRanking.pkfk(c, t, topn), t)
        assert(srql.unionable(t, 10).items === SeedTableRanking.unionable(c.colProfiles, t, 10), t)
      }
    }
  }

  private def bits(r: Seq[(String, Double)]): Seq[(String, Long)] =
    r.map { case (t, s) => (t, java.lang.Double.doubleToRawLongBits(s)) }

  test("solo and joint crossModalSearch equal the seed's embeddingRank, with a zero column, k = 0 and k past the tables") {
    for (c <- lakes) {
      val cols = c.lfs.textCols
      val ntables = cols.map(_.table).distinct.size
      // A stand-in joint space (metadata embeddings): one column embeds to
      // zeros and one has no joint embedding, so both score 0.
      val zeroCol +: missingCol +: _ = cols.sortBy(_.ref).map(_.ref)
      val j = c.Joint(new Mlp(outDim = 100), 0, Vector.empty, c.docProfiles.map(d => d.id -> d.metaEmb).toMap,
        cols.filter(_.ref != missingCol).map(col =>
          col.ref -> (if (col.ref == zeroCol) new Array[Float](100) else col.metaEmb)).toMap,
        TripletTraining.Stats(0, 0, 0, 0, 0, 0, 0, 0, 0))
      val solo = new Srql(c)
      val joint = new Srql(c, Some(j))
      for (d <- c.docProfiles; k <- Seq(0, 1, 10, ntables + 5)) {
        val soloSeed = SeedTableRanking.embeddingRank(d.contentEmb, cols, _.contentEmb, k)
        assert(bits(solo.crossModalSearch(d.id, k).items) === bits(soloSeed), d.id)
        assert(bits(DocToTable.embeddingRank(d.contentEmb, cols, _.contentEmb, k)) === bits(soloSeed), d.id)
        assert(bits(joint.crossModalSearch(d.id, k).items) === bits(SeedTableRanking.embeddingRank(d.metaEmb, cols,
          col => j.colEmb.getOrElse(col.ref, new Array[Float](100)), k)), d.id)
      }
      assert(solo.crossModalSearch(c.docProfiles.head.id, ntables + 5).size === ntables)
    }
  }
}
