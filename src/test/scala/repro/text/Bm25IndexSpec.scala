package repro.text

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite

class Bm25IndexSpec extends AnyFunSuite {

  private val docs = Map(
    "d1" -> Seq("drug", "enzyme", "thymidylate", "synthase"),
    "d2" -> Seq("drug", "interaction", "warfarin"),
    "d3" -> Seq("city", "population", "census"),
    "d4" -> Seq("drug", "drug", "drug", "dose"),
  )
  private val idx = new Bm25Index(docs)

  test("size reflects corpus") { assert(idx.size === 4) }

  test("vocabulary covers all terms") {
    assert(idx.vocabulary.contains("warfarin") && idx.vocabulary.contains("census"))
  }

  test("query ranks the doc containing a unique term first") {
    assert(idx.query(Seq("warfarin"), 2).head._1 === "d2")
  }

  test("query returns at most k results") {
    assert(idx.query(Seq("drug"), 2).size === 2)
  }

  test("query for unknown term returns nothing") {
    assert(idx.query(Seq("nonexistent"), 5).isEmpty)
  }

  test("query on multiple terms accumulates scores") {
    val top = idx.query(Seq("thymidylate", "synthase"), 1).head
    assert(top._1 === "d1")
  }

  test("rare terms outrank common ones (idf)") {
    // d3 shares only 'census' with the query but census is rarer than drug
    val res = idx.query(Seq("census", "drug"), 4).toMap
    assert(res("d3") > res("d2"))
  }

  test("tf saturation: repeated term scores higher but sublinearly") {
    val one = idx.score(Seq("drug"), "d1")
    val three = idx.score(Seq("drug"), "d4")
    assert(three > one)
    assert(three < 3 * one)
  }

  test("score of non-matching doc is zero") {
    assert(idx.score(Seq("drug"), "d3") === 0.0)
  }

  test("score of unknown doc id is zero") {
    assert(idx.score(Seq("drug"), "nope") === 0.0)
  }

  test("BM25 scores are positive for matches") {
    assert(idx.query(Seq("drug"), 4).forall(_._2 > 0))
  }

  test("LM Dirichlet ranks the matching doc first") {
    assert(idx.queryLmDirichlet(Seq("warfarin"), 1).head._1 === "d2")
  }

  test("LM Dirichlet returns empty when no query term is in the vocabulary") {
    assert(idx.queryLmDirichlet(Seq("zzz"), 3).isEmpty)
  }

  test("LM Dirichlet respects k") {
    assert(idx.queryLmDirichlet(Seq("drug"), 2).size === 2)
  }

  test("empty index answers empty") {
    val e = new Bm25Index(Map.empty)
    assert(e.query(Seq("x"), 3).isEmpty)
    assert(e.size === 0)
  }

  test("deterministic ordering on ties (by id)") {
    val tied = new Bm25Index(Map("a" -> Seq("t", "u"), "b" -> Seq("t", "w")))
    assert(tied.query(Seq("t"), 2).map(_._1) === Seq("a", "b"))
  }

  private val vocab = Seq("drug", "enzyme", "city", "dose", "t1", "t2", "t3")
  private val bag: Gen[Seq[String]] = Gen.choose(0, 10).flatMap(n => Gen.listOfN(n, Gen.oneOf(vocab)))

  test("score equals the score query reports, bit for bit, and 0.0 elsewhere") {
    val prop = Prop.forAll(Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, bag)),
        Gen.choose(0, 6).flatMap(n => Gen.listOfN(n, Gen.oneOf(vocab :+ "unknown"))),
        Gen.choose(0.5, 2.0), Gen.choose(0.0, 1.0)) { (bags, terms, k1, b) =>
      val corpus = bags.zipWithIndex.map { case (bg, i) => s"d$i" -> bg }.toMap
      val idx = new Bm25Index(corpus, k1, b)
      val reported = idx.query(terms, idx.size).toMap
      def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
      corpus.keys.forall(id => bits(idx.score(terms, id)) == bits(reported.getOrElse(id, 0.0))) &&
      bits(idx.score(terms, "unknown-id")) == bits(0.0)
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }

  test("scoreAll at indexOf(id) equals score, bit for bit: repeated and unknown terms, empty index") {
    // bags of 0 to 12 documents (an empty index included); queries repeat terms and name unknown ones
    val prop = Prop.forAll(Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, bag)),
        Gen.choose(0, 8).flatMap(n => Gen.listOfN(n, Gen.oneOf(vocab ++ Seq("drug", "unknown", "zzz"))))) {
      (bags, terms) =>
      val corpus = bags.zipWithIndex.map { case (bg, i) => s"d${(i * 7) % 13}_$i" -> bg }.toMap
      val idx = new Bm25Index(corpus)
      val all = idx.scoreAll(terms)
      def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
      all.length == corpus.size && idx.indexOf("unknown-id") == -1 &&
      corpus.keys.map(idx.indexOf).toSet == all.indices.toSet &&
      corpus.keys.forall(id => bits(all(idx.indexOf(id))) == bits(idx.score(terms, id)))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
    assert(new Bm25Index(Map.empty).scoreAll(Seq("drug", "drug")).isEmpty)
  }

  test("query and LM Dirichlet rank by (-score, id) and cut at k") {
    val prop = Prop.forAll(Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, bag)),
        Gen.choose(0, 6).flatMap(n => Gen.listOfN(n, Gen.oneOf(vocab :+ "unknown"))), Gen.choose(-1, 14)) {
      (bags, terms, k) =>
      // shuffled ids, so that index order and insertion order differ
      val corpus = bags.zipWithIndex.map { case (bg, i) => s"d${(i * 7) % 13}_$i" -> bg }.toMap
      val idx = new Bm25Index(corpus)
      def ranked(all: Seq[(String, Double)]) =
        all.forall(_._2 != 0.0) && all == all.sortBy { case (id, s) => (-s, id) }
      val all = idx.query(terms, idx.size)
      val lm = idx.queryLmDirichlet(terms, idx.size)
      ranked(all) && idx.query(terms, k) == all.take(k) &&
      ranked(lm) && idx.queryLmDirichlet(terms, k) == lm.take(k)
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res)
  }

  // values printed by the nested-map postings this index replaced
  test("LM Dirichlet answers are pinned on a fixed corpus") {
    assert(idx.queryLmDirichlet(Seq("drug", "enzyme", "drug", "census"), 4) ===
      Seq(("d1", -7.335571848679686), ("d3", -7.3363733843513526), ("d4", -7.33696309500659), ("d2", -7.340550956260362)))
    assert(idx.queryLmDirichlet(Seq("warfarin", "dose", "zzz"), 4, mu = 3.0) ===
      Seq(("d2", -4.9298079649623014), ("d4", -5.238109324616818), ("d3", -6.664409020350408), ("d1", -6.972710380004925)))
  }
}
