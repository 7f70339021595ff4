package repro.joint

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite

class FdLibmSpec extends AnyFunSuite {

  private def hex(x: Double) = f"${doubleToRawLongBits(x)}%016x"

  /** `FdLibm.f(x)` and `StrictMath.f(x)` have the same bits, for tanh and expm1. */
  private def same(x: Double): Prop = {
    val (t, st) = (FdLibm.tanh(x), StrictMath.tanh(x))
    val (e, se) = (FdLibm.expm1(x), StrictMath.expm1(x))
    Prop(doubleToRawLongBits(t) == doubleToRawLongBits(st) && doubleToRawLongBits(e) == doubleToRawLongBits(se)) :|
      s"x ${hex(x)} ($x): tanh ${hex(t)} vs ${hex(st)}, expm1 ${hex(e)} vs ${hex(se)}"
  }

  private def check(gen: Gen[Double], cases: Int): Unit = {
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(cases), Prop.forAllNoShrink(gen)(same))
    assert(res.passed, res)
  }

  test("tanh and expm1 equal StrictMath bit for bit on random bit patterns") {
    check(Gen.choose(Long.MinValue, Long.MaxValue).map(longBitsToDouble), 200000)
  }

  test("tanh and expm1 equal StrictMath bit for bit on log-uniform magnitudes in [2^-60, 2^8]") {
    val gen = for {
      e <- Gen.choose(-60.0, 8.0)
      neg <- Gen.oneOf(false, true)
    } yield { val m = math.pow(2, e); if (neg) -m else m }
    check(gen, 200000)
  }

  test("tanh and expm1 equal StrictMath bit for bit on special values and their neighbours") {
    val ln2 = math.log(2)
    val specials = Seq(0.0, Double.MinPositiveValue, 3 * Double.MinPositiveValue, java.lang.Double.MIN_NORMAL,
      math.nextDown(java.lang.Double.MIN_NORMAL), math.pow(2, -55), math.pow(2, -54), 0.25, 1.0, 2.0, 22.0,
      0.5 * ln2, 1.5 * ln2, 56 * ln2, 709.782712893384, 710.0, 745.2, Double.MaxValue, Double.PositiveInfinity)
    val xs = specials.flatMap(x => Seq(x, math.nextUp(x), math.nextDown(x))).flatMap(x => Seq(x, -x)) :+ Double.NaN
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(1), Prop.all(xs.map(same): _*))
    assert(res.passed, res)
  }
}
