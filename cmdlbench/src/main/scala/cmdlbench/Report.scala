package cmdlbench

import scala.collection.mutable

/** The metrics of one run, printed one per line and as the final JSON line.
  *
  * `EndToEnd` metrics make up the JSON of an untraced run and `PerLayer`
  * metrics that of a traced run; `Info` metrics are printed only. Every
  * metric carries its unit and the number of samples behind it.
  */
final class Report {
  import Report._

  private val metrics = mutable.LinkedHashMap.empty[String, Metric]
  private val notes = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  def add(kind: Kind, name: String, value: Double, unit: String, n: Long = 1, note: String = ""): Unit = {
    require(!metrics.contains(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    metrics(name) = Metric(name, value, unit, n, note, kind)
  }

  /** A useful-over-attempted ratio; both counts are printed with it. */
  def ratio(kind: Kind, name: String, useful: Long, attempted: Long): Unit =
    add(kind, name, if (attempted == 0) 0.0 else useful.toDouble / attempted, "ratio",
      attempted, s"$useful / $attempted")

  /** p50 always; p90 and p99 only when at least ten samples lie beyond them.
    * `jsonPcts` are the percentiles the JSON carries; they are reported even
    * when the sample is short, with the shortfall noted.
    */
  def latency(kind: Kind, prefix: String, ns: Seq[Long], unit: String, jsonPcts: Set[Int] = Set(50)): Unit = {
    require(ns.nonEmpty, s"no samples for $prefix")
    val sorted = ns.sorted.toArray
    val div = unit match { case "ms" => 1e6; case "us" => 1e3; case "s" => 1e9 }
    for (p <- Seq(50, 90, 99)) {
      val enough = sorted.length * (100 - p) >= 1000
      if (p == 50 || enough || jsonPcts(p))
        add(if (jsonPcts(p)) kind else Info, s"${prefix}_p${p}_$unit", Stats.percentile(sorted, p) / div, unit,
          sorted.length, if (enough || p == 50) "" else "fewer than 10 samples beyond")
    }
  }

  def note(line: String): Unit = notes += line

  def print(trace: Boolean): Unit = {
    notes.foreach(l => println(s"# $l"))
    for (m <- metrics.values) {
      val tag = m.kind match { case EndToEnd => "e2e"; case PerLayer => "layer"; case Info => "info" }
      val note = if (m.note.isEmpty) "" else s"  (${m.note})"
      println(f"$tag%-5s ${m.name}%-36s ${fmt(m.value)}%14s ${m.unit}%-6s n=${m.n}$note")
    }
    val want = if (trace) PerLayer else EndToEnd
    val body = metrics.values.filter(_.kind == want)
      .map(m => s""""${m.name}": {"value": ${fmt(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }
}

object Report {
  sealed trait Kind
  case object EndToEnd extends Kind
  case object PerLayer extends Kind
  case object Info extends Kind

  final case class Metric(name: String, value: Double, unit: String, n: Long, note: String, kind: Kind)

  /** Full precision; integral values without a fraction. */
  def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else java.lang.Double.toString(v)
}

object Stats {
  /** Nearest-rank percentile of a sorted sample. */
  def percentile(sorted: Array[Long], p: Int): Double =
    sorted(math.max(0, math.ceil(p / 100.0 * sorted.length).toInt - 1)).toDouble

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }
}
