package repro.sketch

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MinHashSpec extends AnyFunSuite {

  private def set(n: Int, prefix: String = "v"): Set[String] = (1 to n).map(prefix + _).toSet

  test("signature is deterministic") {
    val s = set(50)
    assert(MinHash.signature(s).toSeq === MinHash.signature(s).toSeq)
  }

  test("signature is order-independent") {
    val vals = (1 to 40).map("x" + _)
    assert(MinHash.signature(vals).toSeq === MinHash.signature(Random.shuffle(vals)).toSeq)
  }

  test("signature of empty set is all MaxValue") {
    assert(MinHash.signature(Nil).forall(_ == Long.MaxValue))
  }

  test("estJaccard of identical sets is 1") {
    val sig = MinHash.signature(set(100))
    assert(MinHash.estJaccard(sig, sig) === 1.0)
  }

  test("estJaccard of disjoint sets is near 0") {
    val a = MinHash.signature(set(100, "a"))
    val b = MinHash.signature(set(100, "b"))
    assert(MinHash.estJaccard(a, b) < 0.05)
  }

  test("estJaccard approximates true jaccard within 0.12 at k=128") {
    val rnd = new Random(13)
    for (_ <- 1 to 20) {
      val a = (1 to 200).filter(_ => rnd.nextBoolean()).map("k" + _).toSet
      val b = (1 to 200).filter(_ => rnd.nextBoolean()).map("k" + _).toSet
      if (a.nonEmpty && b.nonEmpty) {
        val est = MinHash.estJaccard(MinHash.signature(a), MinHash.signature(b))
        assert(math.abs(est - Similarity.jaccard(a, b)) < 0.12)
      }
    }
  }

  test("estJaccard ignores empty-set sentinel rows") {
    val e = MinHash.signature(Nil)
    assert(MinHash.estJaccard(e, e) === 0.0)
  }

  test("estContainment of subset in superset is near 1") {
    val a = set(20)
    val b = set(400)
    val est = MinHash.estContainment(MinHash.signature(a), a.size, MinHash.signature(b), b.size)
    assert(est > 0.8)
  }

  test("estContainment is robust to skew where jaccard is not") {
    val a = set(20); val b = set(400)
    val sa = MinHash.signature(a); val sb = MinHash.signature(b)
    assert(MinHash.estJaccard(sa, sb) < 0.15)
    assert(MinHash.estContainment(sa, a.size, sb, b.size) > 0.8)
  }

  test("estContainment of disjoint sets is near 0") {
    val a = set(50, "a"); val b = set(50, "b")
    val est = MinHash.estContainment(MinHash.signature(a), a.size, MinHash.signature(b), b.size)
    assert(est < 0.1)
  }

  test("estContainment with zero cardinality is 0") {
    val s = MinHash.signature(set(10))
    assert(MinHash.estContainment(s, 0, s, 10) === 0.0)
  }

  test("estContainment capped at 1") {
    val a = set(100)
    val est = MinHash.estContainment(MinHash.signature(a), a.size, MinHash.signature(a), a.size)
    assert(est <= 1.0 && est > 0.99)
  }

  test("signature length parameter is honoured") {
    assert(MinHash.signature(set(10), numHashes = 64).length === 64)
  }

  test("estJaccard rejects mismatched lengths") {
    intercept[IllegalArgumentException] {
      MinHash.estJaccard(MinHash.signature(set(5), 64), MinHash.signature(set(5), 128))
    }
  }

  // chars >= 0x8000 flip the sign of `charAt << 16` in Murmur's two-char blocks
  private val char: Gen[Char] = Gen.frequency(
    4 -> Gen.alphaNumChar, 1 -> Gen.choose('\u0000', '\u7fff'), 2 -> Gen.choose('\u8000', '\uffff'))
  private val value: Gen[String] = Gen.choose(0, 9).flatMap(n => Gen.listOfN(n, char).map(_.mkString))

  test("signature equals the seed kernel bit for bit") {
    val prop = Prop.forAll(Gen.listOf(value), Gen.choose(1, 300)) { (vs, k) =>
      MinHash.signature(vs, k).sameElements(SeedMinHash.signature(vs, k))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res)
  }

  test("signature equals the seed kernel on edge-case values and lengths") {
    val sets = Seq(
      Nil, Seq(""), Seq("a"), Seq("ab"), Seq("abc", "abcd"),
      Seq("\u8000", "\uffff\u8000", "a\u9000b", "\u8001z\uffff\u0000"),
    )
    for (vs <- sets; k <- Seq(1, 2, 3, 255, 256, 300))
      assert(MinHash.signature(vs, k).sameElements(SeedMinHash.signature(vs, k)), s"values $vs, k = $k")
  }
}
