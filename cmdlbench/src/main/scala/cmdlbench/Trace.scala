package cmdlbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is recorded around each public call the benchmark makes into a
  * CMDL module; its name is `<module>.<call>`. Spans carry the id of the
  * span that was open when they started (0 for none) and the request id of
  * the workload operation they belong to (0 outside any operation). With
  * tracing off, `span` only evaluates its body, so untraced runs measure
  * the calls alone. The benchmark drives one client thread, so no locking.
  */
object Trace {

  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, request: Long) {
    def module: String = name.takeWhile(_ != '.')
    def durNs: Long = end - start
  }

  var enabled = false
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var currentRequest = 0L

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      nextId += 1
      val id = nextId
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, name, t0, t1, parent, currentRequest)
      }
    }

  /** Runs `body` as workload operation `id`: its spans carry that request id. */
  def request[A](id: Long)(body: => A): A = {
    val prev = currentRequest
    currentRequest = id
    try body finally currentRequest = prev
  }

  def all: Seq[Span] = spans.toSeq

  /** Self time per module in ns: each span's duration minus the time its
    * direct children cover.
    */
  def selfNsByModule: Map[String, Long] = {
    val childNs = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent != 0) childNs(s.parent) += s.durNs)
    spans.groupMapReduce(_.module)(s => s.durNs - childNs(s.id))(_ + _)
  }

  /** Writes one JSON object per span, in end order. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},""" +
        s""""parent":${s.parent},"request":${s.request}}""")
    } finally out.close()
  }
}
