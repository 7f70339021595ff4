package repro.joint

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}

/** fdlibm's `tanh` and `expm1` (`s_tanh.c`, `s_expm1.c`) in plain Scala.
  *
  * `StrictMath.tanh` and `StrictMath.expm1` are these algorithms, compiled as
  * native code on JDK 17 and reached through a JNI call each time. Here every
  * operation is the C source's, in its order, on IEEE doubles, so each result
  * equals `StrictMath`'s bit for bit (`FdLibmSpec` checks it), while the JIT
  * can inline the call into a loop. `hi` is the high 32 bits of a double, as
  * fdlibm's `__HI`; a write to `__HI` adds to the upper word of the bits.
  */
object FdLibm {

  private val Huge = 1.0e+300
  private val Tiny = 1.0e-300
  private val OThreshold = 7.09782712893383973096e+02 // 0x40862E42 FEFA39EF
  private val Ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42 fee00000
  private val Ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef 35793c76
  private val InvLn2 = 1.44269504088896338700e+00 // 0x3ff71547 652b82fe
  // scaled coefficients of expm1's rational approximation
  private val Q1 = -3.33333333333331316428e-02 // BFA11111 111110F4
  private val Q2 = 1.58730158725481460165e-03 // 3F5A01A0 19FE5585
  private val Q3 = -7.93650757867487942473e-05 // BF14CE19 9EAADBB7
  private val Q4 = 4.00821782732936239552e-06 // 3ED0CFCA 86E65239
  private val Q5 = -2.01099218183624371326e-07 // BE8AFDB7 6E09C32D

  private def hi(x: Double): Int = (doubleToRawLongBits(x) >>> 32).toInt

  /** `x` with `k` added to its exponent field (`__HI(x) += k << 20`). */
  private def addExp(x: Double, k: Int): Double = longBitsToDouble(doubleToRawLongBits(x) + (k.toLong << 52))

  /** The double whose high word is `h` and low word 0. */
  private def fromHi(h: Int): Double = longBitsToDouble(h.toLong << 32)

  /** Hyperbolic tangent, bit-identical to `StrictMath.tanh`. */
  def tanh(x: Double): Double = {
    val jx = hi(x)
    val ix = jx & 0x7fffffff
    if (ix >= 0x7ff00000) { // x is inf or NaN
      if (jx >= 0) 1.0 / x + 1.0 else 1.0 / x - 1.0
    } else {
      val z =
        if (ix < 0x40360000) { // |x| < 22
          if (ix < 0x3c800000) return x * (1.0 + x) // |x| < 2^-55: tanh(small) = small
          if (ix >= 0x3ff00000) { // |x| >= 1
            val t = expm1(2.0 * math.abs(x))
            1.0 - 2.0 / (t + 2.0)
          } else {
            val t = expm1(-2.0 * math.abs(x))
            -t / (t + 2.0)
          }
        } else 1.0 - Tiny // |x| >= 22: ±1
      if (jx >= 0) z else -z
    }
  }

  /** exp(x) - 1, bit-identical to `StrictMath.expm1`. */
  def expm1(x0: Double): Double = {
    var x = x0
    val xsb = hi(x) & 0x80000000
    val hx = hi(x) & 0x7fffffff

    // huge and non-finite arguments
    if (hx >= 0x4043687a) { // |x| >= 56 ln2
      if (hx >= 0x40862e42) { // |x| >= 709.78...
        if (hx >= 0x7ff00000) {
          if (((hx & 0xfffff) | doubleToRawLongBits(x).toInt) != 0) return x + x // NaN
          else return if (xsb == 0) x else -1.0 // exp(±inf) - 1 = {inf, -1}
        }
        if (x > OThreshold) return Huge * Huge // overflow
      }
      if (xsb != 0 && x + Tiny < 0.0) return Tiny - 1.0 // x < -56 ln2: -1
    }

    // argument reduction
    var k = 0
    var c = 0.0
    if (hx > 0x3fd62e42) { // |x| > 0.5 ln2
      var hiPart = 0.0
      var loPart = 0.0
      if (hx < 0x3ff0a2b2) { // and |x| < 1.5 ln2
        if (xsb == 0) { hiPart = x - Ln2Hi; loPart = Ln2Lo; k = 1 }
        else { hiPart = x + Ln2Hi; loPart = -Ln2Lo; k = -1 }
      } else {
        k = (InvLn2 * x + (if (xsb == 0) 0.5 else -0.5)).toInt
        val t = k.toDouble
        hiPart = x - t * Ln2Hi // t * Ln2Hi is exact here
        loPart = t * Ln2Lo
      }
      x = hiPart - loPart
      c = (hiPart - x) - loPart
    } else if (hx < 0x3c900000) { // |x| < 2^-54: x
      val t = Huge + x
      return x - (t - (Huge + x))
    }

    // x is now in the primary range
    val hfx = 0.5 * x
    val hxs = x * hfx
    val r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    val t = 3.0 - r1 * hfx
    var e = hxs * ((r1 - t) / (6.0 - x * t))
    if (k == 0) return x - (x * e - hxs) // c is 0
    e = x * (e - c) - c
    e -= hxs
    if (k == -1) return 0.5 * (x - e) - 0.5
    if (k == 1) {
      if (x < -0.25) return -2.0 * (e - (x + 0.5))
      else return 1.0 + 2.0 * (x - e)
    }
    if (k <= -2 || k > 56) { // exp(x) - 1 suffices
      val y = 1.0 - (e - x)
      return addExp(y, k) - 1.0
    }
    if (k < 20) {
      val t1 = fromHi(0x3ff00000 - (0x200000 >> k)) // 1 - 2^-k
      addExp(t1 - (e - x), k)
    } else {
      val t1 = fromHi((0x3ff - k) << 20) // 2^-k
      addExp((x - (e + t1)) + 1.0, k)
    }
  }
}
