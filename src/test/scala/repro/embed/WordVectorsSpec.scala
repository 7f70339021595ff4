package repro.embed

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite

class WordVectorsSpec extends AnyFunSuite {
  import WordVectors._

  test("wordVector is deterministic") {
    assert(wordVector("pemetrexed").toSeq === wordVector("pemetrexed").toSeq)
  }

  test("wordVector is unit norm") {
    val v = wordVector("thymidylate")
    val n = math.sqrt(v.map(x => x * x.toDouble).sum)
    assert(math.abs(n - 1.0) < 1e-4)
  }

  test("wordVector is case-insensitive") {
    assert(wordVector("Drug").toSeq === wordVector("drug").toSeq)
  }

  test("default dimensionality is 100") {
    assert(wordVector("x").length === 100)
  }

  test("words sharing a long root are close (subword property)") {
    val sim = cosine(wordVector("pemetrexed_12"), wordVector("pemetrexed_47"))
    assert(sim > 0.5)
  }

  test("unrelated words are near-orthogonal") {
    val sim = cosine(wordVector("pemetrexed"), wordVector("warehouse"))
    assert(math.abs(sim) < 0.35)
  }

  test("shared-root similarity exceeds unrelated similarity") {
    val related = cosine(wordVector("enzymealpha1"), wordVector("enzymealpha2"))
    val unrelated = cosine(wordVector("enzymealpha1"), wordVector("cityomega9"))
    assert(related > unrelated + 0.2)
  }

  test("meanPool of a single word equals that word's vector direction") {
    val w = wordVector("drug")
    val p = meanPool(Seq("drug"))
    assert(cosine(w, p) > 0.999)
  }

  test("meanPool of empty collection is the zero vector") {
    assert(meanPool(Nil).forall(_ == 0f))
  }

  test("meanPool is order independent up to float rounding") {
    val a = meanPool(Seq("drug", "enzyme", "target"))
    val b = meanPool(Seq("target", "drug", "enzyme"))
    assert(cosine(a, b) > 0.999999)
  }

  test("meanPool of same-domain words stays close to each member") {
    val words = (1 to 10).map(i => s"drugname$i")
    val pool = meanPool(words)
    assert(words.forall(w => cosine(pool, wordVector(w)) > 0.4))
  }

  test("cosine of identical vectors is 1") {
    val v = wordVector("abc")
    assert(math.abs(cosine(v, v) - 1.0) < 1e-6)
  }

  test("cosine with zero vector is 0") {
    assert(cosine(new Array[Float](100), wordVector("abc")) === 0.0)
  }

  test("cosine rejects mismatched dims") {
    intercept[IllegalArgumentException] {
      cosine(wordVector("a", 50), wordVector("a", 100))
    }
  }

  test("normalize makes a nonzero vector unit length") {
    val v = Array(3f, 4f)
    val n = normalize(v)
    assert(math.abs(math.sqrt(n.map(x => x * x.toDouble).sum) - 1.0) < 1e-6)
  }

  test("normalize leaves the zero vector untouched") {
    assert(normalize(Array(0f, 0f)).toSeq === Seq(0f, 0f))
  }

  private def bits(v: Array[Float]): Seq[Int] = v.toSeq.map(java.lang.Float.floatToRawIntBits)

  // words that repeat and share n-grams, as a column's values do
  private val word: Gen[String] = for {
    root <- Gen.oneOf("mlms3key", "pemetrexed", "Drug", "drug", "a", "", "x_y", "\u00e9t\u00e9")
    suffix <- Gen.oneOf("", "1", "17", "18", "_12", "_47")
  } yield root + suffix

  test("wordVector equals the seed kernel bit for bit") {
    val prop = Prop.forAll(word, Gen.oneOf(1, 7, 100)) { (w, dim) =>
      bits(wordVector(w, dim)) == bits(SeedWordVectors.wordVector(w, dim))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res)
  }

  test("meanPool equals the seed kernel bit for bit on words that repeat and share n-grams") {
    val prop = Prop.forAll(Gen.listOf(word), Gen.oneOf(1, 7, 100)) { (ws, dim) =>
      bits(meanPool(ws, dim)) == bits(SeedWordVectors.meanPool(ws, dim))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res)
  }
}
