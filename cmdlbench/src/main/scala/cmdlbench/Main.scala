package cmdlbench

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

/** Entry point: `cmdlbench.Main --workload build|lookup|union --seed N
  * --seconds S --trace 0|1 [--scale X] [--trace-out FILE] [--tmp DIR]`.
  *
  * Prints one line per metric and, last, one JSON object with the
  * end-to-end metrics (untraced run) or the per-layer metrics (traced run).
  * Exits 0 when every answer passed its checks, 1 when one did not, and 2
  * on a usage error or a crash (then without the JSON line).
  */
object Main {

  /** Modules whose self time the traced run reports: the user path of CMDL. */
  val Modules: Seq[String] = Seq("lake", "profile", "sketch", "embed", "text", "label", "joint", "discover", "ekg", "core")

  private def parse(args: Array[String]): Either[String, (Opts, String)] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def num(k: String, default: String): Option[Double] = kv.getOrElse(k, default).toDoubleOption
    for {
      w <- kv.get("workload").filter(Workloads.Names.contains)
        .toRight(s"--workload must be one of ${Workloads.Names.mkString(", ")}")
      seed <- kv.get("seed").map(s => s.toLongOption.toRight(s"bad --seed $s").map(Some(_))).getOrElse(Right(None))
      seconds <- num("seconds", "20").filter(_ > 0).toRight("bad --seconds")
      trace <- kv.get("trace").orElse(Some("0")).filter(Set("0", "1")).map(_ == "1").toRight("--trace must be 0 or 1")
      scale <- num("scale", "1.0").filter(_ > 0).toRight("bad --scale")
      _ <- if (args.length % 2 == 0) Right(()) else Left("arguments come in --name value pairs")
    } yield {
      val out = kv.getOrElse("trace-out", s"cmdlbench/target/traces/$w-${seed.getOrElse("default")}.jsonl")
      (Opts(w, seed, seconds, trace, scale, out), kv.getOrElse("tmp", "cmdlbench/target/tmp"))
    }
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(msg) =>
      System.err.println(s"cmdlbench: $msg")
      sys.exit(2)
    case Right((opts, tmp)) =>
      val cores = math.min(4, Runtime.getRuntime.availableProcessors)
      val spark = SparkSession.builder()
        .master(s"local[$cores]")
        .appName("cmdlbench")
        .config("spark.ui.enabled", "false")
        .config("spark.local.dir", tmp)
        .config("spark.sql.shuffle.partitions", cores * 2)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
      val report = new Report
      val code =
        try {
          run(spark, opts, report, cores)
          if (report.failed == 0) 0 else 1
        } catch {
          case e: Throwable =>
            e.printStackTrace()
            2
        } finally spark.stop()
      if (code != 2) report.print(opts.trace)
      System.out.flush()
      sys.exit(code)
  }

  private def run(spark: SparkSession, opts: Opts, report: Report, cores: Int): Unit = {
    report.note(s"workload ${opts.workload} seed ${opts.seed.getOrElse("default")} scale ${opts.scale} " +
      s"seconds ${opts.seconds} trace ${if (opts.trace) 1 else 0}; Spark local[$cores], one closed-loop client")
    Trace.enabled = opts.trace
    new Workloads(spark, opts, report).run()
    report.ratio(Report.Info, "failed_frac", report.failed, report.attempted)
    if (opts.trace) {
      val self = Trace.selfNsByModule
      for (m <- Modules)
        report.add(Report.PerLayer, s"self_ms.$m", self.getOrElse(m, 0L) / 1e6, "ms",
          Trace.all.count(_.module == m))
      report.add(Report.Info, "self_ms.bench", self.getOrElse("bench", 0L) / 1e6, "ms")
      report.add(Report.Info, "trace.spans", Trace.all.size, "count")
      Trace.write(Paths.get(opts.traceOut))
      report.note(s"spans written to ${opts.traceOut}")
    }
  }
}
