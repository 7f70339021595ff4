package cmdlbench

import scala.collection.mutable

/** One call of a query stream: the module span it runs under, the call
  * itself, and the invariants its answer must meet (an error message when
  * it does not).
  */
final case class Call(span: String, run: () => AnyRef, check: AnyRef => Option[String])

/** A seeded stream of point calls driven by one closed-loop client: each
  * call starts when the previous one and its output check have finished.
  *
  * The answers of the first pass, over the whole stream, are kept as the
  * reference every later call must reproduce (the determinism check) and as
  * the input of the quality metrics. The warm-up is not timed. A timed pass
  * repeats the first `passCalls` calls of the stream, so that a window holds
  * several passes of equal work even when one call is slow.
  */
final class Stream(calls: IndexedSeq[Call], report: Report, passCalls: Int = Int.MaxValue) {
  require(calls.nonEmpty, "empty query stream")

  /** Calls per timed pass: the first `passCalls` of the stream, or all. */
  private val pass = math.min(passCalls, calls.size)

  private val reference = new Array[AnyRef](calls.size)
  val bySpan = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Long]]
  private var failures = 0
  private var timedCalls = 0L

  private def fail(i: Int, msg: String): Unit = {
    report.failed += 1
    failures += 1
    if (failures <= 5) report.note(s"FAILED ${calls(i).span} call $i: $msg")
  }

  /** Runs call `i` as request `request`; returns the call's own latency in
    * ns (the output check is not part of it).
    */
  private def invoke(i: Int, request: Long): Long = Trace.request(request) {
    Trace.span("bench.call") {
      report.attempted += 1
      val c = calls(i)
      val t0 = System.nanoTime()
      try {
        val r = Trace.span(c.span)(c.run())
        val ns = System.nanoTime() - t0
        c.check(r).foreach(fail(i, _))
        if (reference(i) == null) reference(i) = r
        else if (r != reference(i)) fail(i, "answer differs from the first pass")
        ns
      } catch { case e: Exception => fail(i, e.toString); System.nanoTime() - t0 }
    }
  }

  /** The untimed warm-up: the first pass, whose answers it returns in
    * stream order, then further passes until `minSeconds` have gone by so
    * that the JIT has compiled the calls before the clock starts.
    */
  def warmUp(minSeconds: Double): IndexedSeq[AnyRef] = {
    val t0 = System.nanoTime()
    calls.indices.foreach(i => invoke(i, i + 1L))
    var n = 0L
    while (System.nanoTime() - t0 < minSeconds * 1e9) {
      invoke((n % calls.size).toInt, -1L - n)
      n += 1
    }
    reference.toIndexedSeq
  }

  /** One timed pass over the first `pass` calls. */
  def timedPass(): Pass = {
    val ns = new Array[Long](pass)
    val t0 = System.nanoTime()
    for (i <- 0 until pass) {
      ns(i) = invoke(i, calls.size + timedCalls + 1)
      if (!Trace.enabled) bySpan.getOrElseUpdate(calls(i).span, mutable.ArrayBuffer.empty) += ns(i)
      timedCalls += 1
    }
    Pass(ns.toSeq, (System.nanoTime() - t0) / 1e9)
  }
}

/** One complete pass over a workload's operations: per-operation latencies
  * (ns) and the pass's wall time in seconds.
  */
final case class Pass(ns: Seq[Long], wall: Double)
