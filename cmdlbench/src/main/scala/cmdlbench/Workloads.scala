package cmdlbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.bench.TableBenches
import repro.core.Cmdl
import repro.discover.UnionDiscovery
import repro.ekg.Srql
import repro.joint.TripletTraining
import repro.lake.{ColRef, Lake, LakeGen}

final case class Opts(workload: String, seed: Option[Long], seconds: Double, trace: Boolean,
    scale: Double, traceOut: String)

/** One build: the `Cmdl`, its joint model, and the build and training times. */
final case class Built(c: Cmdl, joint: Cmdl#Joint, ns: Long, trainNs: Long)

object Workloads {
  val Names: Seq[String] = Seq("build", "lookup", "union")

  /** Timed set-ups per run; setup_s is their median. */
  val SetupRuns = 3
  /** Scale of the lakes of the untimed warm-up set-up, relative to the run's. */
  val WarmScale = 0.1
  /** Least time the warm-up of a query stream takes: on `lookup` at scale
    * 1.0 passes keep getting faster for several seconds while the JIT
    * compiles.
    */
  val WarmUpSeconds = 8.0
  /** The build workload trains this many epochs, with early stopping off:
    * on the default ML-Open lake the default convergence test stops after 84
    * epochs, and on lakes of other seeds after 59 to 104.
    */
  val BuildEpochs = 60
  /** Calls per timed pass of the union stream: about 2.5 s at scale 1.0,
    * so that a window holds several passes (the whole 3A+3B stream takes
    * about 6 s).
    */
  val UnionPassCalls = 60
  /** Least timed passes in a window (of each kind, in a traced run). */
  val MinPasses = 2
  /** Scale of the Pharma and UK-Open lakes that fill the Table 3 rows the
    * join cross-check does not read.
    */
  val CrossCheckScale = 0.05
}

/** The three workloads. Each generates its lakes from the seed, sets up a
  * queryable `Cmdl` (`setup_s`), runs its timed window with one
  * closed-loop client, checks every answer, and reports its metrics.
  */
final class Workloads(spark: SparkSession, opts: Opts, report: Report) {
  import Report._
  import Workloads._

  private val rnd = new Random(opts.seed.getOrElse(0L))
  private val layers = new Layers(spark, report, new Random(opts.seed.getOrElse(0L) + 1))

  def run(): Unit = {
    phase("lake generation")
    opts.workload match {
      case "build"  => build()
      case "lookup" => lookup()
      case "union"  => union()
    }
  }

  // ------------------------------------------------------------------
  // lakes and set-up
  // ------------------------------------------------------------------

  private def mlOpen(scale: Double): Lake = opts.seed.fold(LakeGen.mlOpen(scale))(LakeGen.mlOpen(scale, _))
  private def ukOpen(scale: Double): Lake = opts.seed.fold(LakeGen.ukOpen(scale))(LakeGen.ukOpen(scale, _))
  private def pharma(scale: Double): Lake = opts.seed.fold(LakeGen.pharma(scale))(LakeGen.pharma(scale, _))

  /** Generates the workload's full-scale lakes; reports their size. */
  private def generate(gen: Double => Lake*): Seq[Lake] = {
    val (lakes, ns) = Stats.timed(Trace.span("lake.gen")(gen.map(_(opts.scale))))
    report.add(PerLayer, "lake.gen_s", ns / 1e9, "s")
    report.add(Info, "lake.columns", lakes.map(_.rawColumns.size).sum, "count")
    report.add(Info, "lake.docs", lakes.map(_.docs.size).sum, "count")
    lakes
  }

  private var cmdlNewNs = 0L

  /** Raw lake to queryable `Cmdl`: profiling, LF indexes, and the lazy
    * syntactic, union and document-BM25 indexes forced.
    */
  private def ready(lake: Lake): Cmdl = {
    val (c, ns) = Stats.timed(Trace.span("core.cmdl_new")(new Cmdl(spark, lake)))
    cmdlNewNs += ns
    Trace.span("discover.syntactic_index")(c.syntacticIndex)
    Trace.span("discover.union_index")(c.unionIndex)
    Trace.span("text.bm25_docs")(c.bm25Docs)
    c
  }

  /** Warm regime: one untimed set-up of `WarmScale` lakes of the same kind
    * (JIT and Spark warm-up), then `SetupRuns` timed set-ups of the full
    * lakes, each after a full GC, with the previous set-up already garbage.
    * `heap_mb` is read when only the last set-up is reachable, which it
    * returns.
    */
  private def setup[A](warm: => Any, full: => A): A = {
    phase("warm-up set-up")
    warm
    phase("timed set-ups")
    var last: Option[A] = None
    val runs = Vector.fill(SetupRuns) {
      last = None
      System.gc()
      cmdlNewNs = 0L
      val (r, ns) = Stats.timed(full)
      last = Some(r)
      (ns, cmdlNewNs)
    }
    report.add(EndToEnd, "setup_s", Stats.median(runs.map(_._1 / 1e9)), "s", SetupRuns)
    report.add(PerLayer, "core.cmdl_new_s", Stats.median(runs.map(_._2 / 1e9)), "s", SetupRuns)
    System.gc()
    System.gc()
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    report.add(EndToEnd, "heap_mb", heap / 1048576.0, "MB")
    last.get
  }

  /** Notes how long the JVM has been up when a phase starts. */
  private def phase(name: String): Unit =
    report.note(f"$name at ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")

  private def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  // ------------------------------------------------------------------
  // the timed window
  // ------------------------------------------------------------------

  /** Runs timed passes for `opts.seconds`, and at least `MinPasses`. In a
    * traced run the passes alternate between untraced and traced, at least
    * `MinPasses` of each, so that both kinds see the same host. Only
    * untraced passes make the end-to-end figures.
    *
    * `op_ms` is the wall time per operation of the median untraced pass:
    * every pass does the same work, and the median over passes, unlike the
    * fastest pass, does not depend on whether the window happened to catch
    * a quiet stretch of the host. The tracing overhead is the median traced
    * pass's time per operation minus the median untraced pass's.
    */
  private def timedWindow(unit: String)(pass: () => Pass): Unit = {
    phase("timed window")
    val gc0 = gcMs()
    val untraced, traced = mutable.ArrayBuffer.empty[Pass]
    val t0 = System.nanoTime()
    def done = System.nanoTime() - t0 >= opts.seconds * 1e9 && untraced.size >= MinPasses &&
      (!opts.trace || traced.size >= MinPasses)
    while (!done) {
      Trace.enabled = opts.trace && traced.size < untraced.size
      (if (Trace.enabled) traced else untraced) += pass()
    }
    Trace.enabled = opts.trace
    val wall = (System.nanoTime() - t0) / 1e9
    report.add(PerLayer, "jvm.gc_ms", (gcMs() - gc0).toDouble, "ms")
    val ops = untraced.flatMap(_.ns).toSeq
    report.latency(Info, "query", ops, unit)
    report.add(Info, "queries_per_s", ops.size / untraced.map(_.wall).sum, "1/s", ops.size)
    def msPerOp(passes: Iterable[Pass]): Double = Stats.median(passes.map(p => p.wall * 1e3 / p.ns.size).toSeq)
    report.add(EndToEnd, "op_ms", msPerOp(untraced), "ms", untraced.size,
      f"median of ${untraced.size} untraced passes of ${untraced.head.ns.size} ops; window ${wall}%.2f s")
    if (opts.trace)
      report.add(PerLayer, "trace.overhead_ms", msPerOp(traced) - msPerOp(untraced), "ms", traced.size,
        s"median of ${traced.size} traced passes minus median of ${untraced.size} untraced")
  }

  /** Mean over queries of |top-k ∩ truth| / k with k = |truth|. */
  private def rPrecision[A](answers: Seq[(Seq[A], Set[A])]): Double =
    answers.map { case (ans, truth) => ans.take(truth.size).count(truth.contains).toDouble / truth.size }.sum /
      answers.size

  private def fail(msg: String): Unit = { report.failed += 1; report.note(s"FAILED $msg") }

  private def atMost(k: Int, n: Int): Option[String] = if (n > k) Some(s"$n answers for k=$k") else None

  // ------------------------------------------------------------------
  // build: raw ML-Open lake to joint embeddings for every DE
  // ------------------------------------------------------------------

  /** The build workload always builds the default ML-Open lake (seed 303).
    * Across lake seeds the weak labels fall into different regimes (0.1% to
    * 13% of doc-column pairs reach the positive threshold), which changes an
    * epoch's cost 4x and the joint R-precision 2x; seeded lakes would measure
    * that regime, not the code.
    */
  private def build(): Unit = {
    val Seq(lake) = generate(LakeGen.mlOpen(_))
    report.add(Info, "lake.queries", lake.docBenches.map(_.queries.size).sum, "count")
    setup(ready(LakeGen.mlOpen(opts.scale * WarmScale)), ready(lake))
    val cfg = TripletTraining.Config(maxEpochs = BuildEpochs, convergenceTol = 0.0)

    def buildOnce(): Built = {
      val t0 = System.nanoTime()
      val c = Trace.span("core.cmdl_new")(new Cmdl(spark, lake))
      val wl = Trace.span("label.weak_labels")(c.weakLabels())
      val t1 = System.nanoTime()
      val j = Trace.span("joint.train")(c.trainJoint(wl, cfg))
      val t2 = System.nanoTime()
      report.attempted += 1
      Built(c, j, t2 - t0, t2 - t1)
    }

    val builds = Vector.newBuilder[Built]
    timedWindow("s") { () =>
      val b = buildOnce()
      builds += b
      Pass(Seq(b.ns), b.ns / 1e9)
    }
    val all = builds.result()
    report.add(Info, "build_s", Stats.median(all.map(_.ns / 1e9)), "s", all.size)

    // every build trains the same model on the same lake
    val b = all.last
    val j = b.joint
    if (all.exists(_.joint.lossHistory != j.lossHistory)) fail("builds of one lake trained different models")
    if (j.epochs != BuildEpochs) fail(s"trained ${j.epochs} epochs, expected $BuildEpochs")
    if (j.docEmb.keySet != b.c.docProfiles.map(_.id).toSet) fail("joint embeddings miss documents")
    if (j.colEmb.keySet != b.c.lfs.textCols.map(_.ref).toSet) fail("joint embeddings miss columns")
    if ((j.docEmb.values ++ j.colEmb.values).exists(_.exists(x => x.isNaN || x.isInfinite)))
      fail("joint embeddings are not finite")

    // Doc→Table quality on 1C, outside the timed part
    val tables = lake.tables.map(_.name).toSet
    val queries = lake.docBenches.find(_.id == "1C").get.queries.toSeq.sortBy(_._1)
    def answers(srql: Srql): Seq[(Seq[String], Set[String])] = queries.map { case (doc, truth) =>
      val r = srql.crossModalSearch(doc, truth.size).names
      report.attempted += 1
      if (r.size > truth.size || !r.forall(tables)) fail(s"crossModalSearch($doc) answered $r")
      (r, truth)
    }
    val joint = new Srql(b.c, Some(j))
    val first = answers(joint)
    if (answers(joint) != first) fail("joint-space answers are not deterministic")
    report.add(EndToEnd, "rprec", rPrecision(first), "ratio", first.size)
    report.add(Info, "rprec_doc2table_joint", rPrecision(first), "ratio", first.size)
    report.add(Info, "rprec_doc2table_solo", rPrecision(answers(new Srql(b.c))), "ratio", first.size)

    if (opts.trace) {
      val epochs = all.map(_.joint.epochs)
      layers.run(b.c, lake, new Srql(b.c), unionProbes(b.c),
        Some(Trained(Stats.median(all.map(_.trainNs / 1e9)), j.epochs, j.lossHistory.last, j.model)))
      report.note(s"epochs per build: ${epochs.mkString(",")}")
    }
  }

  /** Union probes on a lake without a union benchmark: seeded tables of the
    * `Cmdl`'s own union index.
    */
  private def unionProbes(c: Cmdl): IndexedSeq[(UnionDiscovery.UnionIndex, String, Int)] =
    rnd.shuffle(c.unionIndex.tables.toVector.sorted).take(10).map(t => (c.unionIndex, t, 10))

  // ------------------------------------------------------------------
  // lookup: point discovery calls against a built ML-Open Cmdl
  // ------------------------------------------------------------------

  private def lookup(): Unit = {
    val Seq(lake) = generate(mlOpen)
    val c = setup(ready(mlOpen(opts.scale * WarmScale)), ready(lake))
    val srql = new Srql(c)
    val columns = lake.rawColumns.map(r => ColRef(r.table, r.column)).toSet
    val tables = lake.tables.map(_.name).toSet
    val docTruth = lake.docBenches.find(_.id == "1C").get.queries
    val joinQs = for {
      b <- lake.joinBenches
      (q, truth) <- b.queries.toSeq.sortBy(_._1.render)
    } yield (b.id, q, truth)

    def tablesCheck(k: Int)(r: AnyRef): Option[String] = {
      val items = r.asInstanceOf[Seq[(String, Double)]]
      atMost(k, items.size).orElse(items.find(i => !tables(i._1)).map(i => s"unknown table ${i._1}"))
    }
    val joinCalls = joinQs.map { case (_, q, truth) =>
      val p = c.colByRef(q.render)
      Call("discover.join_topk", () => c.syntacticIndex.topK(p, truth.size), { r =>
        val hits = r.asInstanceOf[Seq[(ColRef, Double)]]
        atMost(truth.size, hits.size)
          .orElse(hits.find(_._1.table == q.table).map(h => s"${h._1.render} is in the query's own table"))
          .orElse(hits.find(h => !columns(h._1)).map(h => s"unknown column ${h._1.render}"))
      })
    }
    val docs = c.docProfiles.sortBy(_.id)
    val docCalls = docs.flatMap { d =>
      val k = docTruth.get(d.id).fold(10)(_.size)
      Seq(
        ("probe", d.id) -> Call("label.lf_probe", () => c.lfs.probe(d), { r =>
          val votes = r.asInstanceOf[Map[String, Set[String]]]
          votes.collectFirst { case (lf, refs) if refs.size > c.lfs.k => s"$lf returned ${refs.size}" }
            .orElse(votes.values.flatten.find(ref => !c.colByRef.contains(ref)).map(ref => s"unknown column $ref"))
        }),
        ("cross", d.id) -> Call("ekg.srql_crossmodal", () => srql.crossModalSearch(d.id, k).items, tablesCheck(k)),
        ("content", d.id) -> Call("ekg.srql_content", () => srql.contentSearch(d.title, "Table").items, tablesCheck(10)),
      )
    }
    val tagged = rnd.shuffle(joinQs.zip(joinCalls).map { case ((b, q, _), call) => (b, q.render) -> call } ++ docCalls)
    report.add(Info, "lake.queries", tagged.size, "count")
    val stream = new Stream(tagged.map(_._2).toVector, report)
    val answers: Map[(String, String), AnyRef] = tagged.map(_._1).zip(stream.warmUp(WarmUpSeconds)).toMap
    timedWindow("ms")(stream.timedPass)
    for ((span, ns) <- stream.bySpan.toSeq.sortBy(_._1))
      report.add(Info, s"query_p50_us.$span", Stats.median(ns.map(_.toDouble).toSeq) / 1e3, "us", ns.size)

    phase("checks")
    // quality, from the first pass
    def hits[A](key: (String, String)): Seq[A] =
      Option(answers(key)).map(_.asInstanceOf[Seq[(A, Double)]].map(_._1)).getOrElse(Seq.empty)
    val joinAnswers = joinQs.map { case (b, q, truth) => (b, hits[ColRef]((b, q.render)), truth) }
    report.add(EndToEnd, "rprec", rPrecision(joinAnswers.map(a => (a._2, a._3))), "ratio", joinAnswers.size)
    report.add(Info, "rprec_join", rPrecision(joinAnswers.map(a => (a._2, a._3))), "ratio", joinAnswers.size)
    val solo = docTruth.toSeq.sortBy(_._1).map { case (d, truth) => (hits[String](("cross", d)), truth) }
    report.add(Info, "rprec_doc2table_solo", rPrecision(solo), "ratio", solo.size)
    report.add(Info, "ekg.edges_after_window", srql.ekg.size, "count")
    crossCheckTable3(lake, c, joinAnswers)

    phase("layer probes")
    if (opts.trace) layers.run(c, lake, srql, unionProbes(c), None)
    phase("done")
  }

  /** `rprec_join` per 2C benchmark must equal `TableBenches.table3`'s CMDL
    * column. Table 3 also has a Pharma and a UK-Open row, so those two lakes
    * are filled with small stand-ins; the 2C rows read only ML-Open.
    */
  private def crossCheckTable3(lake: Lake, c: Cmdl, answers: Seq[(String, Seq[ColRef], Set[ColRef])]): Unit = {
    val ph = pharma(CrossCheckScale)
    val uk = ukOpen(CrossCheckScale)
    val ctx = TableBenches.Ctx(TableBenches.Lakes(ph, uk, lake), new Cmdl(spark, ph), new Cmdl(spark, uk), c)
    report.attempted += 1
    for (row <- TableBenches.table3(ctx) if row.benchmark.startsWith("2C")) {
      val ours = rPrecision(answers.filter(_._1 == row.benchmark).map(a => (a._2, a._3)))
      report.note(f"Table 3 ${row.benchmark}: CMDL ${row.cmdl}%.6f, lookup stream $ours%.6f")
      if (math.abs(ours - row.cmdl) > 1e-9) fail(s"rprec on ${row.benchmark} is $ours, Table 3 says ${row.cmdl}")
    }
  }

  // ------------------------------------------------------------------
  // union: ensemble unionable-table search over 3A and 3B
  // ------------------------------------------------------------------

  private def union(): Unit = {
    val Seq(uk, ph) = generate(ukOpen, pharma)
    val benches = Seq((uk, "3A", "Govt. data"), (ph, "3B", "DrugBank-Synthetic"))
    def readyAll(lakes: Seq[Lake]): Seq[(Cmdl, UnionDiscovery.UnionIndex)] =
      lakes.zip(benches).map { case (l, (_, _, coll)) =>
        val c = ready(l)
        (c, Trace.span("discover.union_index")(new UnionDiscovery.UnionIndex(c.profilesIn(coll))))
      }
    val built = setup(readyAll(Seq(ukOpen(opts.scale * WarmScale), pharma(opts.scale * WarmScale))), readyAll(Seq(uk, ph)))

    val queries = for {
      ((lake, id, _), (_, idx)) <- benches.zip(built)
      (q, truth) <- lake.unionBenches.find(_.id == id).get.queries.toSeq.sortBy(_._1)
    } yield (idx, q, truth)
    val calls = queries.map { case (idx, q, truth) =>
      Call("discover.union_topk", () => idx.topK(q, truth.size, UnionDiscovery.ensembleScore), { r =>
        val hits = r.asInstanceOf[Seq[(String, Double)]]
        atMost(truth.size, hits.size)
          .orElse(hits.find(_._1 == q).map(_ => s"$q answered with itself"))
          .orElse(hits.find(h => !idx.tables(h._1)).map(h => s"unknown table ${h._1}"))
      })
    }
    val order = rnd.shuffle(queries.indices.toVector)
    report.add(Info, "lake.queries", order.size, "count")
    val stream = new Stream(order.map(calls), report, UnionPassCalls)
    val first = stream.warmUp(0)
    timedWindow("ms")(stream.timedPass)

    val answers = order.zip(first).map { case (i, r) =>
      (Option(r).map(_.asInstanceOf[Seq[(String, Double)]].map(_._1)).getOrElse(Seq.empty), queries(i)._3)
    }
    report.add(EndToEnd, "rprec", rPrecision(answers), "ratio", answers.size)
    report.add(Info, "rprec_union", rPrecision(answers), "ratio", answers.size)

    if (opts.trace) {
      val (cu, _) = built.head
      val probes = rnd.shuffle(queries.toVector).take(10).map { case (idx, q, truth) => (idx, q, truth.size) }
      layers.run(cu, uk, new Srql(cu), probes, None)
    }
  }
}
