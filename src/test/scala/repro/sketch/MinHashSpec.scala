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

  // The bound was measured before it was stated: over 30,000 random pairs drawn as below, the error
  // never exceeded 2.58 * sqrt(r / k), r = (|A| + |B|) / |A| (99.9th percentile 1.89; at r < 2 the largest
  // error was 0.084, at r >= 64 the estimate often saturates at 0 or 1). The Jaccard estimate's standard
  // error is sqrt(J (1 - J) / k), and converting it to containment scales it by about r, hence the shape.
  test("estContainment at k = 256 is within 4 * sqrt((|A| + |B|) / (|A| k)) of exact containment " +
      "(measured max 2.58) on skewed cardinalities") {
    val k = 256
    def logUniform(hi: Int): Gen[Int] = Gen.choose(0.0, math.log(hi)).map(u => math.exp(u).toInt)
    val containment = Gen.frequency(1 -> Gen.const(0.0), 1 -> Gen.const(1.0), 6 -> Gen.choose(0.0, 1.0))
    val prop = Prop.forAll(logUniform(2000), logUniform(20000), containment, Gen.choose(0, Int.MaxValue)) {
      (cardA, cardB, c, salt) =>
        val inter = math.min(cardB, math.round(c * cardA).toInt)
        val common = (0 until inter).map(i => s"$salt-c$i")
        val a = common ++ (inter until cardA).map(i => s"$salt-a$i")
        val b = common ++ (inter until cardB).map(i => s"$salt-b$i")
        val est = MinHash.estContainment(MinHash.signature(a, k), cardA, MinHash.signature(b, k), cardB)
        val exact = inter.toDouble / cardA
        val bound = 4 * math.sqrt((cardA + cardB).toDouble / (cardA * k))
        Prop(math.abs(est - exact) <= bound) :| s"|A| $cardA, |B| $cardB, exact $exact, estimate $est, bound $bound"
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }

  test("estMaxContainment equals the max of both estContainment directions bit for bit") {
    val size = Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 300))
    // the true size, zero, or one unrelated to the signature
    def card(n: Int): Gen[Long] = Gen.frequency(3 -> Gen.const(n.toLong), 1 -> Gen.const(0L), 1 -> Gen.choose(0L, 5000L))
    val prop = Prop.forAll(size, size, Gen.choose(0.0, 1.0), Gen.choose(0, Int.MaxValue)) { (nA, nB, shared, salt) =>
      val inter = math.round(shared * math.min(nA, nB)).toInt
      val a = (0 until nA).map(i => if (i < inter) s"$salt-c$i" else s"$salt-a$i")
      val b = (0 until nB).map(i => if (i < inter) s"$salt-c$i" else s"$salt-b$i")
      val (sa, sb) = (MinHash.signature(a), MinHash.signature(b))
      Prop.forAll(card(nA), card(nB)) { (cardA, cardB) =>
        val want = math.max(MinHash.estContainment(sa, cardA, sb, cardB), MinHash.estContainment(sb, cardB, sa, cardA))
        val got = MinHash.estMaxContainment(sa, cardA, sb, cardB)
        Prop(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)) :|
          s"|A| $nA card $cardA, |B| $nB card $cardB, shared $inter: got $got, want $want"
      }
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
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
