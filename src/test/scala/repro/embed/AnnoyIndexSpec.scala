package repro.embed

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite

class AnnoyIndexSpec extends AnyFunSuite {

  // Three well-separated word families, 30 items each.
  private val families = Seq("drugzeta", "enzymekappa", "citythorpe")
  private val items: IndexedSeq[(String, Array[Float])] =
    (for {
      f <- families
      i <- 1 to 30
    } yield (s"${f}_$i", WordVectors.wordVector(s"${f}_$i"))).toIndexedSeq
  private val index = new AnnoyIndex(items)

  test("size reflects items") { assert(index.size === 90) }

  test("self-query returns self first") {
    val q = items(5)._2
    assert(index.query(q, 1).head._1 === items(5)._1)
  }

  test("neighbours come from the same family") {
    val res = index.query(WordVectors.wordVector("drugzeta_99"), 10)
    assert(res.count(_._1.startsWith("drugzeta")) >= 8)
  }

  test("scores are sorted descending") {
    val res = index.query(WordVectors.wordVector("enzymekappa_3"), 20).map(_._2)
    assert(res.sliding(2).forall(p => p.size < 2 || p.head >= p(1)))
  }

  test("query respects k") {
    assert(index.query(items.head._2, 7).size === 7)
  }

  test("recall vs exact scan is high at default searchK") {
    val q = WordVectors.wordVector("enzymekappa_11")
    val exact = items.map { case (id, v) => (id, WordVectors.cosine(q, v)) }
      .sortBy(-_._2).take(10).map(_._1).toSet
    val approx = index.query(q, 10).map(_._1).toSet
    assert(approx.intersect(exact).size >= 7)
  }

  test("larger searchK can only help recall") {
    val q = WordVectors.wordVector("citythorpe_4")
    val small = index.query(q, 10, searchKOpt = 16).map(_._1).toSet
    val large = index.query(q, 10, searchKOpt = 90).map(_._1).toSet
    val exact = items.map { case (id, v) => (id, WordVectors.cosine(q, v)) }
      .sortBy(-_._2).take(10).map(_._1).toSet
    assert(large.intersect(exact).size >= small.intersect(exact).size - 1)
  }

  test("empty index answers empty") {
    val e = new AnnoyIndex(IndexedSeq.empty)
    assert(e.query(WordVectors.wordVector("x"), 3).isEmpty)
  }

  test("single-item index returns that item") {
    val one = new AnnoyIndex(IndexedSeq(("only", WordVectors.wordVector("only"))))
    assert(one.query(WordVectors.wordVector("only"), 5).map(_._1) === Seq("only"))
  }

  test("duplicate vectors do not break tree construction") {
    val v = WordVectors.wordVector("dup")
    val dup = new AnnoyIndex(IndexedSeq.tabulate(40)(i => (s"d$i", v.clone())))
    assert(dup.query(v, 5).size === 5)
  }

  private def bits(r: Seq[(String, Double)]): Seq[(String, Long)] =
    r.map { case (id, c) => (id, java.lang.Double.doubleToRawLongBits(c)) }

  // Vectors from a small pool of coordinates, so items repeat (duplicate
  // pivots, margins of exactly 0), some are all zeros (a column with no tokens
  // pools to zero), and ids repeat too.
  test("query equals the seed's index on random items: duplicates, zero vectors, n <= leafSize, empty and one item") {
    val world = for {
      dim <- Gen.choose(1, 6)
      pool <- Gen.nonEmptyListOf(Gen.frequency(
        1 -> Gen.const(new Array[Float](dim)),
        4 -> Gen.listOfN(dim, Gen.oneOf(-1f, 0f, 0.5f, 1f, 2f)).map(_.toArray)))
      n <- Gen.frequency(1 -> Gen.choose(0, 1), 2 -> Gen.choose(2, 16), 4 -> Gen.choose(17, 120))
      items <- Gen.listOfN(n, Gen.zip(Gen.choose(0, 150).map(i => s"i$i"), Gen.oneOf(pool)))
      nTrees <- Gen.choose(0, 5)
      leafSize <- Gen.choose(1, 20)
      seed <- Gen.long
      probes <- Gen.listOfN(4, Gen.zip(Gen.oneOf(pool), Gen.choose(-1, 15), Gen.oneOf(-1, 1, 3, 16, 200)))
    } yield (items.toIndexedSeq, nTrees, leafSize, seed, probes)
    val prop = Prop.forAll(world) { case (items, nTrees, leafSize, seed, probes) =>
      val flat = new AnnoyIndex(items, nTrees, leafSize, seed)
      val old = new SeedAnnoyIndex(items, nTrees, leafSize, seed)
      probes.forall { case (q, k, searchK) => bits(flat.query(q, k, searchK)) == bits(old.query(q, k, searchK)) }
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }
}
