package repro.bench

import org.apache.spark.sql.SparkSession

import repro.baseline.{Aurum, D3L}
import repro.core.{Cmdl, Eval}
import repro.discover.{JoinDiscovery, UnionDiscovery}
import repro.lake.{BenchStats, ColRef, Lake, LakeGen}
import repro.profile.DocProfile

/** Harnesses reproducing each table of the evaluation section (§6).
  *
  * Each `tableN` method computes the measured rows over the synthetic lakes
  * and returns them next to the paper's published numbers, so the bench
  * suites (bench/) and the spark-submit jobs (jobs/) print directly
  * comparable output. The lakes are generated at bench scale (1.0) unless a
  * caller passes something smaller.
  */
object TableBenches {

  final case class Lakes(pharma: Lake, ukOpen: Lake, mlOpen: Lake)

  def lakes(scale: Double = 1.0): Lakes =
    Lakes(LakeGen.pharma(scale), LakeGen.ukOpen(scale), LakeGen.mlOpen(scale))

  /** Profiled CMDL instances for the three lakes — built once, shared by all
    * table harnesses (profiling is the expensive step).
    */
  final case class Ctx(lakes: Lakes, pharma: Cmdl, ukOpen: Cmdl, mlOpen: Cmdl)

  def context(spark: SparkSession, scale: Double = 1.0): Ctx = {
    val l = lakes(scale)
    Ctx(l, new Cmdl(spark, l.pharma), new Cmdl(spark, l.ukOpen), new Cmdl(spark, l.mlOpen))
  }

  /** Each table's title, as the bench suites and `TableJob` print it. */
  val Titles: Map[Int, String] = Map(
    1 -> "Overview of the evaluation datasets",
    2 -> "Overview of the evaluation benchmarks",
    3 -> "Evaluation of syntactic join discovery",
    4 -> "Evaluation of PK-FK join discovery (Benchmark 2D)",
    5 -> "Comparing individual similarity metrics",
    6 -> "Query throughput for different labeling functions")

  /** The line that heads table `n`'s rows in bench and job output. */
  def header(n: Int): String = s"=== Table $n: ${Titles(n)} ==="

  def render(rows: Seq[Seq[String]]): String = {
    if (rows.isEmpty) return ""
    val widths = rows.head.indices.map(i => rows.map(_(i).length).max)
    rows.map(_.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Table 1 — lake overview
  // ------------------------------------------------------------------

  /** Paper Table 1 reference: collection -> (tables, DEs, numeric%). */
  val Table1Paper: Map[String, (Int, Int, Double)] = Map(
    "DrugBank" -> (82, 418, 7), "ChEMBL" -> (77, 543, 41), "ChEBI" -> (10, 61, 34),
    "PubMed" -> (0, 2000, 0), "DrugBank-Synthetic" -> (80, 220, 7),
    "Govt. data" -> (654, 8766, 18), "Synthetic text" -> (0, 2360, 0),
    "SS" -> (28, 243, 33), "MS" -> (159, 1286, 46), "LS" -> (46, 2550, 69),
    "Reviews" -> (0, 1500, 0))

  def table1(l: Lakes): Seq[Seq[String]] = {
    val header = Seq("lake", "collection", "format", "tables(ours/paper)", "DEs(ours/paper)",
      "size", "numeric%(ours/paper)")
    val rows = BenchStats.table1(Seq(l.pharma, l.ukOpen, l.mlOpen)).map { r =>
      val (pT, pD, pN) = Table1Paper.getOrElse(r.collection, (0, 0, 0.0))
      Seq(r.lake, r.collection, r.format, s"${r.numTables}/$pT", s"${r.numDEs}/$pD",
        f"${r.sizeBytes / 1024.0}%.0fkB", f"${r.pctNumeric}%.0f/${pN}%.0f")
    }
    header +: rows
  }

  // ------------------------------------------------------------------
  // Table 2 — benchmark overview
  // ------------------------------------------------------------------

  /** Paper Table 2 reference: benchmark -> (#queries, avg answer, mQCR). */
  val Table2Paper: Map[String, (Int, Double, Double)] = Map(
    "1A" -> (2360, 55, .05), "1B" -> (927, 8, .006), "1C" -> (1500, 7, .003),
    "2A" -> (1000, 17, .62), "2B" -> (147, 8, .08),
    "2C-SS" -> (150, 6, .71), "2C-MS" -> (690, 6, .45), "2C-LS" -> (790, 6, .02),
    "2D-DrugBank" -> (1, 55, .28), "2D-ChEMBL" -> (1, 96, .25), "2D-ChEBI" -> (1, 9, .22),
    "3A" -> (654, 110, .5), "3B" -> (80, 15, .23))

  def table2(l: Lakes): Seq[Seq[String]] = {
    val header = Seq("category", "benchmark", "lake", "datasets",
      "queries(ours/paper)", "avgAnswer(ours/paper)", "mQCR(ours/paper)")
    val rows = BenchStats.table2(l.pharma, l.ukOpen, l.mlOpen).map { r =>
      val (pQ, pA, pM) = Table2Paper.getOrElse(r.benchmark, (0, 0.0, 0.0))
      Seq(r.category, r.benchmark, r.lake, r.datasets,
        s"${r.numQueries}/$pQ", f"${r.avgAnswerSize}%.1f/$pA%.0f", f"${r.mQcr}%.3f/$pM%.3f")
    }
    header +: rows
  }

  // ------------------------------------------------------------------
  // Table 3 — syntactic join discovery (R-precision)
  // ------------------------------------------------------------------

  /** Paper Table 3 reference: benchmark -> (aurum, d3l, cmdl). */
  val Table3Paper: Map[String, (Double, Double, Double)] = Map(
    "2A" -> (.22, .22, .30), "2B" -> (.21, .37, .62),
    "2C-SS" -> (.70, .70, .70), "2C-MS" -> (.55, .55, .57), "2C-LS" -> (.21, .21, .44))

  final case class Table3Row(benchmark: String, workload: String,
      aurum: Double, d3l: Double, cmdl: Double)

  def table3(ctx: Ctx): Seq[Table3Row] = {
    val cmdlPharma = ctx.pharma
    val cmdlUk = ctx.ukOpen
    val cmdlMl = ctx.mlOpen

    def row(cmdl: Cmdl, benchId: String, collections: Seq[String]): Table3Row = {
      val lake = cmdl.lake
      val bench = lake.joinBenches.find(_.id == benchId).get
      val profiles = cmdl.profilesIn(collections: _*)
      val byRef = profiles.map(p => p.ref -> p).toMap
      val aurumIdx = new Aurum.SyntacticIndex(profiles)
      val d3lIdx = new D3L.SyntacticIndex(profiles)
      val cmdlIdx = new JoinDiscovery.SyntacticIndex(profiles)
      def rp(topK: (repro.profile.ColumnProfile, Int) => Seq[(ColRef, Double)]): Double =
        Eval.rPrecision[ColRef, ColRef](bench.queries,
          (q, k) => byRef.get(q.render).map(p => topK(p, k).map(_._1)).getOrElse(Seq.empty))
      Table3Row(benchId, bench.workload,
        aurum = rp(aurumIdx.topK), d3l = rp(d3lIdx.topK), cmdl = rp(cmdlIdx.topK))
    }

    Seq(
      row(cmdlUk, "2A", Seq("Govt. data")),
      row(cmdlPharma, "2B", Seq("DrugBank")),
      row(cmdlMl, "2C-SS", Seq("SS")),
      row(cmdlMl, "2C-MS", Seq("MS")),
      row(cmdlMl, "2C-LS", Seq("LS")),
    )
  }

  def renderTable3(rows: Seq[Table3Row]): String = {
    val header = Seq("benchmark", "workload", "Aurum(ours/paper)", "D3L(ours/paper)", "CMDL(ours/paper)")
    render(header +: rows.map { r =>
      val (pa, pd, pc) = Table3Paper(r.benchmark)
      Seq(r.benchmark, r.workload, f"${r.aurum}%.2f/$pa%.2f", f"${r.d3l}%.2f/$pd%.2f",
        f"${r.cmdl}%.2f/$pc%.2f")
    })
  }

  // ------------------------------------------------------------------
  // Table 4 — PK-FK join discovery
  // ------------------------------------------------------------------

  /** Paper Table 4 reference: database -> (aurumP, aurumR, cmdlP, cmdlR). */
  val Table4Paper: Map[String, (Double, Double, Double, Double)] = Map(
    "DrugBank" -> (.58, .36, .33, .91),
    "ChEMBL" -> (.09, .53, .24, .59),
    "ChEBI" -> (.71, .58, .71, .58))

  final case class Table4Row(database: String, knownPkfks: Int,
      aurum: Eval.Pr, cmdl: Eval.Pr)

  def table4(ctx: Ctx): Seq[Table4Row] = {
    val cmdl = ctx.pharma
    ctx.lakes.pharma.pkfkBenches.map { b =>
      val profiles = cmdl.profilesIn(b.database)
      Table4Row(b.database, b.gt.size,
        aurum = Eval.setPr(Aurum.pkfk(profiles), b.gt),
        cmdl = Eval.setPr(JoinDiscovery.pkfk(profiles), b.gt))
    }
  }

  def renderTable4(rows: Seq[Table4Row]): String = {
    val header = Seq("database", "knownPKFKs", "Aurum p/r (ours)", "Aurum p/r (paper)",
      "CMDL p/r (ours)", "CMDL p/r (paper)")
    render(header +: rows.map { r =>
      val (ap, ar, cp, cr) = Table4Paper(r.database)
      Seq(r.database, r.knownPkfks.toString,
        f"${r.aurum.precision}%.2f/${r.aurum.recall}%.2f", f"$ap%.2f/$ar%.2f",
        f"${r.cmdl.precision}%.2f/${r.cmdl.recall}%.2f", f"$cp%.2f/$cr%.2f")
    })
  }

  // ------------------------------------------------------------------
  // Table 5 — individual similarity measures for unionability (RR)
  // ------------------------------------------------------------------

  /** Paper Table 5 reference: (benchmark, measure) -> (RR, queries answered). */
  val Table5Paper: Map[(String, String), (Double, Double)] = Map(
    ("3A", "name") -> (.82, .99), ("3A", "containment") -> (.63, .99),
    ("3A", "numeric") -> (.34, .87), ("3A", "semantic") -> (.62, 1.0),
    ("3A", "ensemble") -> (.83, 1.0),
    ("3B", "name") -> (.44, .75), ("3B", "containment") -> (.65, 1.0),
    ("3B", "numeric") -> (.04, .20), ("3B", "semantic") -> (.73, 1.0),
    ("3B", "ensemble") -> (.79, 1.0))

  final case class Table5Row(benchmark: String, measure: String, rr: Eval.RelRecall)

  def table5(ctx: Ctx): Seq[Table5Row] = {
    val cmdlPharma = ctx.pharma
    val cmdlUk = ctx.ukOpen

    def rowsFor(cmdl: Cmdl, benchId: String, collection: String): Seq[Table5Row] = {
      val bench = cmdl.lake.unionBenches.find(_.id == benchId).get
      val index = new UnionDiscovery.UnionIndex(cmdl.profilesIn(collection))
      val found: Map[String, Map[String, Set[String]]] =
        UnionDiscovery.Measures.map { case (m, score) =>
          m -> bench.queries.map { case (q, truth) =>
            q -> index.topK(q, truth.size, score).map(_._1).toSet
          }
        }.toMap
      val rr = Eval.relativeRecall(bench.queries, found)
      UnionDiscovery.Measures.map { case (m, _) => Table5Row(benchId, m, rr(m)) }
    }

    rowsFor(cmdlUk, "3A", "Govt. data") ++ rowsFor(cmdlPharma, "3B", "DrugBank-Synthetic")
  }

  def renderTable5(rows: Seq[Table5Row]): String = {
    val header = Seq("benchmark", "measure", "RR(ours/paper)", "answered%(ours/paper)")
    render(header +: rows.map { r =>
      val (prr, pqa) = Table5Paper((r.benchmark, r.measure))
      Seq(r.benchmark, r.measure, f"${r.rr.rr}%.2f/$prr%.2f",
        f"${r.rr.queriesAnswered * 100}%.0f/${pqa * 100}%.0f")
    })
  }

  // ------------------------------------------------------------------
  // Table 6 — labeling-function index throughput
  // ------------------------------------------------------------------

  /** Paper Table 6 reference: labeling function -> Qps. */
  val Table6Paper: Map[String, Int] = Map(
    "Content search" -> 75, "Containment" -> 120, "Semantic" -> 1000)

  final case class Table6Row(function: String, index: String, qps: Double)

  /** Timed rounds in `table6`, the probes in each round, and the probes one
    * index runs before the next takes its turn.
    */
  private val Table6Rounds = 15
  private val Table6Queries = 200
  private val Table6Turn = 10

  /** Qps of each labeling-function probe over `Table6Queries` UK-Open documents.
    * After one warm-up pass each, `Table6Rounds` rounds are timed. Within a
    * round the three indexes take turns over the documents, `Table6Turn` at a
    * time, so a slow stretch of the JVM or the host hits them alike; a
    * probe's Qps is that of its median round.
    */
  def table6(ctx: Ctx): Seq[Table6Row] = {
    val cmdl = ctx.ukOpen
    val docs = Iterator.continually(cmdl.docProfiles).flatten.take(Table6Queries).toVector
    val k = 10
    val probes: Seq[DocProfile => Unit] = Seq(
      d => cmdl.lfs.bm25Content.query(d.bag, k),
      d => cmdl.lfs.lsh.query(d.sig, d.card, k),
      d => cmdl.lfs.annoy.query(d.contentEmb, k),
    )
    probes.foreach(docs.foreach(_)) // warm-up
    val secs = Array.fill(probes.size, Table6Rounds)(0.0)
    for (round <- 0 until Table6Rounds; turn <- docs.grouped(Table6Turn); (probe, i) <- probes.zipWithIndex) {
      val t0 = System.nanoTime()
      turn.foreach(probe)
      secs(i)(round) += (System.nanoTime() - t0) / 1e9
    }
    val Seq(tContent, tContain, tSemantic) = secs.toSeq.map(s => s.sorted.apply(Table6Rounds / 2))
    Seq(
      Table6Row("Content search", "BM25 (elastic-search substitute)", Table6Queries / tContent),
      Table6Row("Containment", "LSHEnsemble", Table6Queries / tContain),
      Table6Row("Semantic", "Annoy (RP forest)", Table6Queries / tSemantic),
    )
  }

  def renderTable6(rows: Seq[Table6Row]): String = {
    val header = Seq("labeling function", "index", "Qps(ours)", "Qps(paper)")
    render(header +: rows.map { r =>
      Seq(r.function, r.index, f"${r.qps}%.0f", Table6Paper(r.function).toString)
    })
  }
}
