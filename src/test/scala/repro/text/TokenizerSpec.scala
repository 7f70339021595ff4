package repro.text

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.profile.Profiler

class TokenizerSpec extends AnyFunSuite {

  test("tokenize lowercases and splits on non-alphanumerics") {
    assert(Tokenizer.tokenize("Thymidylate Synthase, enzyme-target!") ===
      Seq("thymidylate", "synthase", "enzyme", "target"))
  }

  test("tokenize keeps digits inside tokens") {
    assert(Tokenizer.tokenize("drug42 and 7x") === Seq("drug42", "and", "7x"))
  }

  test("tokenize of empty string is empty") {
    assert(Tokenizer.tokenize("").isEmpty)
  }

  test("tokenize of punctuation-only string is empty") {
    assert(Tokenizer.tokenize("..., --- !!").isEmpty)
  }

  test("removeStopwords drops function words") {
    assert(Tokenizer.removeStopwords(Seq("the", "drug", "is", "effective")) ===
      Seq("drug", "effective"))
  }

  test("removeStopwords drops single chars and pure numbers") {
    assert(Tokenizer.removeStopwords(Seq("x", "42", "drug7")) === Seq("drug7"))
  }

  test("nounFilter drops adverb-like -ly forms") {
    assert(Tokenizer.nounFilter(Seq("quickly", "enzyme", "reportedly")) === Seq("enzyme"))
  }

  test("nounFilter keeps short words ending in ly") {
    assert(Tokenizer.nounFilter(Seq("fly", "ally")) === Seq("fly", "ally"))
  }

  test("lemmatize strips plural s") {
    assert(Tokenizer.lemmatize("drugs") === "drug")
  }

  test("lemmatize maps -ies to -y") {
    assert(Tokenizer.lemmatize("therapies") === "therapy")
  }

  test("lemmatize strips -es") {
    assert(Tokenizer.lemmatize("enzymes") === "enzym") // rule-based, consistent either side
  }

  test("lemmatize keeps -ss words") {
    assert(Tokenizer.lemmatize("class") === "class")
  }

  test("lemmatize is idempotent on already-singular short words") {
    assert(Tokenizer.lemmatize("drug") === "drug")
  }

  test("bagOfWords runs the full pipeline") {
    val bag = Tokenizer.bagOfWords("The drugs are quickly binding to enzymes.")
    assert(bag.contains("drug"))
    assert(!bag.contains("the"))
    assert(!bag.contains("quickly"))
  }

  test("docFreqFilter removes terms in more than half the docs") {
    val bags = Seq(Seq("common", "a1"), Seq("common", "b1"), Seq("common", "c1"), Seq("d1"))
    val out = DocFreqOracle.docFreqFilter(bags, maxDfFrac = 0.5)
    assert(out.flatten.toSet === Set("a1", "b1", "c1", "d1"))
  }

  test("docFreqFilter keeps terms at exactly the threshold") {
    val bags = Seq(Seq("half"), Seq("half"), Seq("x"), Seq("y"))
    val out = DocFreqOracle.docFreqFilter(bags, maxDfFrac = 0.5)
    assert(out.flatten.count(_ == "half") === 2)
  }

  test("docFreqFilter on empty corpus is a no-op") {
    assert(DocFreqOracle.docFreqFilter(Seq.empty) === Seq.empty)
  }

  test("property: tokenize output is always lowercase alphanumeric") {
    val rnd = new Random(7)
    for (_ <- 1 to 200) {
      val s = rnd.alphanumeric.take(rnd.nextInt(40)).mkString + " ?-_" + rnd.nextPrintableChar()
      assert(Tokenizer.tokenize(s).forall(t => t.nonEmpty && t.forall(c => c.isDigit || (c.isLetter && c.isLower))))
    }
  }

  test("property: bagOfWords never contains stopwords") {
    val rnd = new Random(11)
    val pool = Tokenizer.Stopwords.toSeq ++ Seq("Drugs", "Enzymes", "pathway", "Binding")
    for (_ <- 1 to 200) {
      val s = Seq.fill(10)(pool(rnd.nextInt(pool.size))).mkString(" ")
      assert(Tokenizer.bagOfWords(s).forall(t => !Tokenizer.Stopwords.contains(t)))
    }
  }

  test("tokenize and nameTokens equal the String.split and replaceAll expressions they replaced") {
    def oldTokenize(text: String) = text.toLowerCase.split("[^a-z0-9]+").toSeq.filter(_.nonEmpty)
    val prop = Prop.forAll(TokenizerSpec.mixedText) { s =>
      Tokenizer.tokenize(s) == oldTokenize(s) &&
        Profiler.nameTokens(s) == oldTokenize(s.replaceAll("([a-z])([A-Z])", "$1 $2"))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res)
  }
}

object TokenizerSpec {

  /** Strings of upper- and lower-case letters, ASCII and non-ASCII digits and
    * letters, and separators; often empty or separators only.
    */
  val mixedText: Gen[String] = {
    val chars = "aZzQ09_- .,\tÉéßİıΣσ٣５ǅ中"
    val separators = "_- .,\t"
    Gen.frequency(
      8 -> Gen.listOf(Gen.oneOf(chars.toSeq)).map(_.mkString),
      1 -> Gen.const(""),
      1 -> Gen.listOf(Gen.oneOf(separators.toSeq)).map(_.mkString),
    )
  }
}
