package repro.embed

import repro.{SparkSpec, TestFixtures}

/** The semantic labeling function's Annoy index on the fixture lakes: the
  * flat forest against the seed's, and its recall against the exact scan.
  */
class AnnoyLakeSpec extends SparkSpec {

  private val lakes = Seq("Pharma" -> TestFixtures.cmdlPharma, "UK-Open" -> TestFixtures.cmdlUkOpen)

  private def bits(r: Seq[(String, Double)]): Seq[(String, Long)] =
    r.map { case (id, c) => (id, java.lang.Double.doubleToRawLongBits(c)) }

  test("the flat index gives the seed's ids and score bits on every document and column probe of Pharma and UK-Open") {
    for ((name, c) <- lakes) {
      val items = c.lfs.textCols.map(col => (col.ref, col.contentEmb)).toIndexedSeq
      val seed = new SeedAnnoyIndex(items)
      val probes = c.docProfiles.map(d => (d.id, d.contentEmb)) ++
        c.lfs.textCols.flatMap(col => Seq((col.ref, col.contentEmb), (col.ref + " meta", col.metaEmb)))
      assert(probes.size > 100, name)
      for ((id, q) <- probes; k <- Seq(1, 10, 50); searchK <- Seq(-1, 16, 300)) {
        assert(bits(c.lfs.annoy.query(q, k, searchK)) === bits(seed.query(q, k, searchK)), s"$name $id k=$k searchK=$searchK")
      }
    }
  }

  // A hit counts if its exact cosine reaches the exact 10th best, so a probe
  // whose top 10 ties (a zero embedding ties every column at 0) loses no recall.
  // Measured mean recall@10 over every document probe (default searchK):
  // Pharma 0.964 (13 of 75 below 1), UK-Open 0.891 (45 of 114 below 1, one at 0).
  test("recall@10 against the exact cosine scan stays at its measured floor on Pharma and UK-Open") {
    for (((name, c), floor) <- lakes.zip(Seq(0.95, 0.88))) {
      val cols = c.lfs.textCols
      val recalls = c.docProfiles.map { d =>
        val exact = cols.map(col => WordVectors.cosine(d.contentEmb, col.contentEmb)).sorted(Ordering[Double].reverse)
        val tenth = exact(math.min(10, exact.size) - 1)
        val hits = c.lfs.annoy.query(d.contentEmb, 10).count(_._2 >= tenth)
        hits.toDouble / math.min(10, exact.size)
      }
      val mean = recalls.sum / recalls.size
      info(f"$name: mean recall@10 $mean%.4f over ${recalls.size} documents, min ${recalls.min}%.2f, " +
        s"${recalls.count(_ < 1.0)} below 1")
      assert(mean >= floor, name)
    }
  }
}
