package repro.embed

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite

class EmbeddingMatrixSpec extends AnyFunSuite {

  private def bits(xs: Seq[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  // Coordinates from a small pool, so rows repeat and whole rows are zero.
  private def vec(dim: Int): Gen[Array[Float]] = Gen.frequency(
    1 -> Gen.const(new Array[Float](dim)),
    4 -> Gen.listOfN(dim, Gen.frequency(3 -> Gen.choose(-1f, 1f), 1 -> Gen.const(0f),
      1 -> Gen.oneOf(-2f, 0.5f, 3f))).map(_.toArray))

  test("cosines equal WordVectors.cosine bit for bit, for zero rows and rows in any order") {
    val world = for {
      dim <- Gen.oneOf(1, 2, 3, 5, 8, 100)
      n <- Gen.choose(0, 12)
      rows <- Gen.listOfN(n, vec(dim))
      q <- vec(dim)
      ids <- if (n == 0) Gen.const(Nil) else Gen.listOf(Gen.choose(0, n - 1))
    } yield (rows.toIndexedSeq, q, ids.toArray)
    val prop = Prop.forAll(world) { case (rows, q, ids) =>
      val m = new EmbeddingMatrix(rows)
      val out = new Array[Double](ids.length)
      m.cosines(q, ids, ids.length, out)
      bits(out.toSeq) == bits(ids.toSeq.map(i => WordVectors.cosine(q, rows(i))))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }

  test("cosines rejects a query of another width, and an empty scan reads no query") {
    val m = new EmbeddingMatrix(IndexedSeq(Array(1f, 2f)))
    intercept[IllegalArgumentException](m.cosines(Array(1f), Array(0), 1, new Array[Double](1)))
    m.cosines(Array(1f), Array.emptyIntArray, 0, Array.emptyDoubleArray)
    intercept[IllegalArgumentException](new EmbeddingMatrix(IndexedSeq(Array(1f), Array(1f, 2f))))
  }

  test("topK orders as sortBy((-score, key)), ties, NaN and signed zeros included, and cuts at k") {
    val scores = Gen.oneOf(0.0, -0.0, 0.5, 1.0, -1.0, Double.NaN, Double.NegativeInfinity)
    val world = for {
      n <- Gen.choose(0, 30)
      s <- Gen.listOfN(n, scores)
      keys <- Gen.pick(n, 0 until 100)
      order <- Gen.long
      k <- Gen.choose(-1, 35)
    } yield (s.toArray, new scala.util.Random(order).shuffle(keys.toVector).toArray, k)
    val prop = Prop.forAll(world) { case (s, keys, k) =>
      EmbeddingMatrix.topK(s, keys, s.length, k).toSeq == s.indices.sortBy(i => (-s(i), keys(i))).take(k)
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }
}
