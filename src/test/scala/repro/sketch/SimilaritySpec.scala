package repro.sketch

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimilaritySpec extends AnyFunSuite {
  import Similarity._

  test("jaccard of identical sets is 1") {
    assert(jaccard(Set("a", "b"), Set("a", "b")) === 1.0)
  }

  test("jaccard of disjoint sets is 0") {
    assert(jaccard(Set("a"), Set("b")) === 0.0)
  }

  test("jaccard of two empty sets is 0 by convention") {
    assert(jaccard(Set.empty, Set.empty) === 0.0)
  }

  test("jaccard of half-overlap") {
    assert(jaccard(Set("a", "b"), Set("b", "c")) === 1.0 / 3.0)
  }

  test("jaccard is symmetric") {
    val rnd = new Random(3)
    for (_ <- 1 to 100) {
      val a = Set.fill(rnd.nextInt(20))(rnd.nextInt(30).toString)
      val b = Set.fill(rnd.nextInt(20))(rnd.nextInt(30).toString)
      assert(math.abs(jaccard(a, b) - jaccard(b, a)) < 1e-12)
    }
  }

  test("jaccard drops as cardinality skew grows — the motivating weakness") {
    val small = (1 to 10).map(_.toString).toSet
    val big = (1 to 1000).map(_.toString).toSet
    assert(jaccard(small, big) === 0.01)
    assert(containment(small, big) === 1.0)
  }

  test("containment of subset is 1") {
    assert(containment(Set("a"), Set("a", "b", "c")) === 1.0)
  }

  test("containment is asymmetric") {
    assert(containment(Set("a", "b", "c"), Set("a")) === 1.0 / 3.0)
  }

  test("containment of empty query is 0") {
    assert(containment(Set.empty, Set("a")) === 0.0)
  }

  test("qgrams pad the string") {
    assert(qgrams("ab").contains("##a"))
    assert(qgrams("ab").contains("ab#"))
  }

  test("qgrams are case-insensitive") {
    assert(qgrams("AbC") === qgrams("abc"))
  }

  test("nameSimilarity of identical names is 1") {
    assert(nameSimilarity("drug_id", "drug_id") === 1.0)
  }

  test("nameSimilarity of related names is high, unrelated low") {
    val related = nameSimilarity("drug_id", "drug_ids")
    val unrelated = nameSimilarity("drug_id", "city_pop")
    assert(related > 0.5)
    assert(unrelated < 0.2)
    assert(related > unrelated)
  }

  test("numericOverlap of identical ranges is 1") {
    assert(numericOverlap(0, 10, 0, 10) === 1.0)
  }

  test("numericOverlap of disjoint ranges is 0") {
    assert(numericOverlap(0, 1, 2, 3) === 0.0)
  }

  test("numericOverlap of nested range") {
    assert(numericOverlap(0, 10, 2, 7) === 0.5)
  }

  test("numericOverlap of identical point ranges is 1") {
    assert(numericOverlap(5, 5, 5, 5) === 1.0)
  }

  test("numericOverlap bounded in [0,1]") {
    val rnd = new Random(9)
    for (_ <- 1 to 200) {
      val (a, b, c, d) = (rnd.nextDouble() * 100, rnd.nextDouble() * 100,
        rnd.nextDouble() * 100, rnd.nextDouble() * 100)
      val s = numericOverlap(math.min(a, b), math.max(a, b), math.min(c, d), math.max(c, d))
      assert(s >= 0.0 && s <= 1.0)
    }
  }
}
