package repro.sketch

import org.scalacheck.{Arbitrary, Gen, Prop, Test => Check}

import repro.{SparkSpec, TestFixtures}

class LshEnsembleSpec extends SparkSpec {
  import LshEnsembleSpec.World

  private def set(lo: Int, hi: Int, prefix: String = "v"): Set[String] =
    (lo to hi).map(prefix + _).toSet

  /** Index over raw value sets, signed with `numHashes` rows. */
  private def build(sets: Seq[(String, Set[String])], numHashes: Int = MinHash.DefaultNumHashes): LshEnsemble =
    new LshEnsemble(sets.map { case (id, s) => LshEnsemble.Entry(id, MinHash.signature(s, numHashes), s.size) })

  // 40 columns with cardinalities from 20 to 800; c0 ⊂ c1 ⊂ ... by construction
  private val nested: Seq[(String, Set[String])] =
    (0 until 8).map(i => (s"c$i", set(1, 20 * (i + 1) * (i + 1))))
  private val noise: Seq[(String, Set[String])] =
    (0 until 32).map(i => (s"n$i", set(1, 50, s"noise${i}_")))
  private val index = build(nested ++ noise)

  test("index size matches entries") { assert(index.size === 40) }

  test("query finds supersets of a contained query") {
    val q = set(1, 20)
    val res = index.query(MinHash.signature(q), q.size, 8).map(_._1)
    // every nested column contains q entirely
    assert(res.count(_.startsWith("c")) >= 6)
  }

  test("top result has near-perfect containment score") {
    val q = set(1, 20)
    val res = index.query(MinHash.signature(q), q.size, 3)
    assert(res.head._2 > 0.85)
  }

  test("noise columns do not outrank true supersets") {
    val q = set(1, 80)
    val res = index.query(MinHash.signature(q), q.size, 5)
    assert(res.take(3).forall(_._1.startsWith("c")))
  }

  test("disjoint query yields no high-containment hits") {
    val q = set(1, 30, "zzz_")
    val res = index.query(MinHash.signature(q), q.size, 5)
    assert(res.forall(_._2 < 0.5))
  }

  test("queryThreshold keeps only entries above the threshold") {
    val q = set(1, 20)
    val res = index.queryThreshold(MinHash.signature(q), q.size, 0.8)
    assert(res.nonEmpty)
    assert(res.forall(_._2 >= 0.8))
  }

  test("queryThreshold at 0 returns all banded candidates sorted") {
    val q = set(1, 20)
    val res = index.queryThreshold(MinHash.signature(q), q.size, 0.0)
    assert(res.map(_._2).sliding(2).forall(p => p.size < 2 || p.head >= p(1)))
  }

  test("query respects k") {
    val q = set(1, 20)
    assert(index.query(MinHash.signature(q), q.size, 2).size <= 2)
  }

  test("empty index answers empty") {
    val e = new LshEnsemble(Seq.empty)
    assert(e.query(MinHash.signature(set(1, 5)), 5, 3).isEmpty)
  }

  test("partitioning does not lose entries (self-query recalls self)") {
    for ((id, s) <- nested) {
      val res = index.query(MinHash.signature(s), s.size, 40)
      assert(res.map(_._1).contains(id), s"self-recall failed for $id")
    }
  }

  // Rows drawn from a tiny range so that entries and probes often share a
  // row's bucket; Long.MaxValue is the empty-set sentinel row.
  private def sigOf(rows: Int): Gen[Array[Long]] = Gen.listOfN(rows, Gen.frequency(
    6 -> Gen.choose(0L, 3L), 1 -> Gen.const(Long.MaxValue), 1 -> Arbitrary.arbitrary[Long])).map(_.toArray)

  private val world: Gen[World] = for {
    rows <- Gen.choose(1, 12)
    partitions <- Gen.choose(1, 5)
    n <- Gen.choose(0, 30)
    entries <- Gen.listOfN(n, for {
      id <- Gen.choose(0, 40) // ids may repeat
      sig <- sigOf(rows)
      card <- Gen.choose(1L, 200L)
    } yield LshEnsemble.Entry(s"e$id", sig, card))
    probes <- Gen.listOfN(4, Gen.zip(sigOf(rows), Gen.choose(1L, 200L)))
  } yield World(entries, rows, partitions, probes)

  // The seed partitioned by cardinality with one row per band; one table must
  // answer as it did for any number of partitions, less the bucket collisions
  // that share no row value (arbitrary Longs include -1 and Long.MinValue,
  // whose row hashes equal those of 0 and Long.MaxValue).
  test("query and queryThreshold equal the seed's hash-map index") {
    val prop = Prop.forAll(world, Gen.choose(0, 12), Gen.choose(0.0, 1.0)) { (w, k, threshold) =>
      val idx = new LshEnsemble(w.entries)
      val seed = new SeedLshEnsemble(w.entries, w.partitions, bands = w.rows, sharedRowsOnly = true)
      w.probes.forall { case (sig, card) =>
        idx.query(sig, card, k) == seed.query(sig, card, k) &&
        idx.queryThreshold(sig, card, threshold) == seed.queryThreshold(sig, card, threshold) &&
        idx.queryThreshold(sig, card, 0.0) == seed.queryThreshold(sig, card, 0.0)
      }
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }

  test("a row-hash collision without a shared row value is no candidate; a shared Long.MaxValue row is one") {
    val Seq(zero, minusOne, min, max) = Seq(0L, -1L, Long.MinValue, Long.MaxValue).map(v => Array.fill(4)(v))
    for ((entry, probe) <- Seq(minusOne -> zero, min -> max)) {
      val e = Seq(LshEnsemble.Entry("e", entry, 10))
      assert(new SeedLshEnsemble(e, bands = 4).queryThreshold(probe, 10, 0.0) === Seq("e" -> 0.0))
      assert(new LshEnsemble(e).candidates(probe).isEmpty)
    }
    assert(new LshEnsemble(Seq(LshEnsemble.Entry("e", max, 10))).candidates(max).map(_.id).toSeq === Seq("e"))
  }

  test("query equals the seed's index on the nested and noise columns") {
    val entries = (nested ++ noise).map { case (id, s) => LshEnsemble.Entry(id, MinHash.signature(s), s.size) }
    val seed = new SeedLshEnsemble(entries)
    for (q <- Seq(set(1, 20), set(1, 80), set(1, 30, "zzz_"), set(1, 50, "noise3_"))) {
      val sig = MinHash.signature(q)
      assert(index.query(sig, q.size, 40) === seed.query(sig, q.size, 40))
      assert(index.queryThreshold(sig, q.size, 0.0) === seed.queryThreshold(sig, q.size, 0.0))
    }
  }

  private def entries(rows: Int*): Seq[LshEnsemble.Entry] =
    rows.zipWithIndex.map { case (r, i) => LshEnsemble.Entry(s"e$i", MinHash.signature(set(1, 10), r), 10) }

  test("signatures of different lengths fail at construction") {
    val e = intercept[IllegalArgumentException](new LshEnsemble(entries(256, 256, 128)))
    assert(e.getMessage.contains("entry 'e2' has a 128-row signature but 'e0' has 256 rows"))
  }

  test("a probe signature of the wrong length fails with a clear message") {
    val idx = new LshEnsemble(entries(256, 256))
    val e = intercept[IllegalArgumentException](idx.query(MinHash.signature(set(1, 10), 64), 10, 3))
    assert(e.getMessage.contains("probe signature has 64 rows, the index's have 256"))
    intercept[IllegalArgumentException](idx.queryThreshold(MinHash.signature(set(1, 10), 300), 10, 0.5))
  }

  test("an index needs at least one signature row") {
    val e = intercept[IllegalArgumentException](new LshEnsemble(entries(0, 0)))
    assert(e.getMessage.contains("entry 'e0' has an empty signature; the index needs at least one row"))
  }

  test("build with a custom signature length bands every row, so a disjoint probe collides with nothing") {
    val small = build(nested ++ noise, numHashes = 64)
    val q = set(1, 30, "zzz_")
    assert(small.queryThreshold(MinHash.signature(q, 64), q.size, 0.0).isEmpty)
    assert(small.query(MinHash.signature(set(1, 20), 64), 20, 3).head._2 > 0.85)
  }

  test("the syntactic LF's candidates on UK-Open equal the seed's 4-partition index") {
    val cmdl = TestFixtures.cmdlUkOpen
    val seed = new SeedLshEnsemble(cmdl.lfs.textCols.map(c => LshEnsemble.Entry(c.ref, c.sig, c.card)))
    val probes = cmdl.docProfiles.map(d => (d.id, d.sig, d.card)) ++ cmdl.lfs.textCols.map(c => (c.ref, c.sig, c.card))
    assert(cmdl.docProfiles.nonEmpty && cmdl.lfs.textCols.nonEmpty)
    for ((id, sig, card) <- probes)
      assert(cmdl.lfs.lsh.queryThreshold(sig, card, 0.0) === seed.queryThreshold(sig, card, 0.0), id)
  }
}

object LshEnsembleSpec {
  final case class World(entries: Seq[LshEnsemble.Entry], rows: Int, partitions: Int, probes: Seq[(Array[Long], Long)])
}
