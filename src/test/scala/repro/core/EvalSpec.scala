package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EvalSpec extends AnyFunSuite {
  import Eval._

  test("rPrecision equals 1 for perfect ranking") {
    val queries = Map("q1" -> Set("a", "b"), "q2" -> Set("c"))
    val answers = Map("q1" -> Seq("a", "b", "z"), "q2" -> Seq("c", "y"))
    assert(rPrecision[String, String](queries, (q, _) => answers(q)) === 1.0)
  }

  test("rPrecision averages across queries") {
    val queries = Map("q1" -> Set("a", "b"), "q2" -> Set("c"))
    val answers = Map("q1" -> Seq("a", "z", "b"), "q2" -> Seq("y", "c"))
    // q1: top-2 has 1 hit of 2 = .5; q2: top-1 has 0 hits = 0
    assert(rPrecision[String, String](queries, (q, _) => answers(q)) === 0.25)
  }

  test("rPrecision on empty query set is zero") {
    assert(rPrecision[String, String](Map.empty, (_, _) => Seq.empty) === 0.0)
  }

  test("setPr computes precision and recall over sets") {
    val pr = setPr(Set("a", "b", "c"), Set("b", "c", "d", "e"))
    assert(math.abs(pr.precision - 2.0 / 3) < 1e-9)
    assert(pr.recall === 0.5)
  }

  test("setPr with empty found set has zero precision") {
    assert(setPr(Set.empty[String], Set("a")) === Pr(0.0, 0.0))
  }

  test("relativeRecall: a measure finding everything has RR 1") {
    val truth = Map("q" -> Set("a", "b"))
    val rr = relativeRecall(truth, Map(
      "all" -> Map("q" -> Set("a", "b", "junk")),
      "none" -> Map("q" -> Set.empty[String])))
    assert(rr("all").rr === 1.0)
    assert(rr("none").rr === 0.0)
  }

  test("relativeRecall denominator is the union of true matches over measures") {
    val truth = Map("q" -> Set("a", "b", "c", "d"))
    val rr = relativeRecall(truth, Map(
      "m1" -> Map("q" -> Set("a", "b")),
      "m2" -> Map("q" -> Set("b", "c"))))
    // union of true found = {a,b,c} (d found by nobody)
    assert(math.abs(rr("m1").rr - 2.0 / 3) < 1e-9)
    assert(math.abs(rr("m2").rr - 2.0 / 3) < 1e-9)
  }

  test("relativeRecall ignores false positives in found sets") {
    val truth = Map("q" -> Set("a"))
    val rr = relativeRecall(truth, Map("m" -> Map("q" -> Set("a", "fp1", "fp2"))))
    assert(rr("m").rr === 1.0)
  }

  test("queriesAnswered counts queries with at least one true match") {
    val truth = Map("q1" -> Set("a"), "q2" -> Set("b"))
    val rr = relativeRecall(truth, Map("m" -> Map("q1" -> Set("a"), "q2" -> Set("z"))))
    assert(rr("m").queriesAnswered === 0.5)
  }
}
