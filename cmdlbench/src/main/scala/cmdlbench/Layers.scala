package cmdlbench

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.core.Cmdl
import repro.discover.{DocToTable, UnionDiscovery}
import repro.ekg.Srql
import repro.embed.{AnnoyIndex, WordVectors}
import repro.joint.{Mlp, TripletTraining}
import repro.lake.Lake
import repro.label.LabelingFunctions
import repro.profile.{Profiler, Tags}
import repro.sketch.{LshEnsemble, MinHash}
import repro.text.{Bm25Index, Tokenizer}

/** A trained joint model and how it was trained. */
final case class Trained(trainS: Double, epochs: Int, finalLoss: Double, model: Mlp)

/** The per-layer pass of a traced run.
  *
  * It calls the public entry points of every CMDL module a fixed, seeded
  * number of times on the workload's own lake and reports per-call
  * latencies (warm-up pass excluded) and the work counters that explain
  * them. Each call runs under a span named after its module, so every
  * module shows up in the trace whichever workload runs.
  */
final class Layers(spark: SparkSession, report: Report, rnd: Random) {
  import Report.{Info, PerLayer}

  /** Calls per probe type: enough for a p99 with ten samples beyond it. */
  val ProbeCalls = 1000
  /** Calls per probe type whose single call costs a millisecond or more. */
  val SlowCalls = 200
  /** Epochs of the short training run on workloads that do not train. */
  val ProbeEpochs = 2

  private var sink = 0L // consumes results so that the JIT keeps the timed calls

  private def sample[A](xs: Seq[A], n: Int): IndexedSeq[A] = rnd.shuffle(xs.toVector).take(n)

  /** Per-call latencies (ns) of `f`, cycling over `items` for `calls` calls
    * after one untimed warm-up pass.
    */
  private def probe[A](span: String, items: IndexedSeq[A], calls: Int)(f: A => Any): Seq[Long] = {
    items.foreach(a => sink += System.identityHashCode(f(a)))
    Vector.tabulate(calls) { i =>
      val t0 = System.nanoTime()
      val r = Trace.span(span)(f(items(i % items.size)))
      val ns = System.nanoTime() - t0
      sink += System.identityHashCode(r)
      ns
    }
  }

  /** Mean ns per call of a call too fast to time one at a time. */
  private def tight(span: String, n: Int)(f: Int => Double): Double = {
    var acc = 0.0
    var i = 0
    while (i < n) { acc += f(i); i += 1 }
    val t0 = System.nanoTime()
    Trace.span(span) { i = 0; while (i < n) { acc += f(i); i += 1 } }
    val ns = (System.nanoTime() - t0).toDouble / n
    sink += acc.toLong
    ns
  }

  /** Median of three timed constructions, in ms. */
  private def buildMs(span: String)(body: => Any): Double =
    Stats.median(Seq.fill(3)(Stats.timed(Trace.span(span)(body))._2 / 1e6))

  private def medianOf(ns: Seq[Long], div: Double): Double = Stats.median(ns.map(_.toDouble)) / div

  /** Runs every probe against `c`.
    *
    * @param srql        the SRQL front-end whose EKG is counted
    * @param unionProbes (index, query table, k) calls for the union probe
    * @param trained     the workload's own training, or None to train
    *                    `ProbeEpochs` epochs here
    */
  def run(c: Cmdl, lake: Lake, srql: Srql,
      unionProbes: IndexedSeq[(UnionDiscovery.UnionIndex, String, Int)],
      trained: Option[Trained]): Unit = {
    val k = c.lfs.k
    val textCols = c.lfs.textCols.toIndexedSeq
    val docs = sample(c.docProfiles.sortBy(_.id), 200)
    val colQ = sample(textCols, 200)

    // profile
    val (_, colNs) = Stats.timed(Trace.span("profile.columns")(Profiler.profileColumns(spark, lake.rawColumns)))
    val (_, docNs) = Stats.timed(Trace.span("profile.docs")(Profiler.profileDocs(spark, lake.docs)))
    report.add(PerLayer, "profile.columns_s", colNs / 1e9, "s")
    report.add(PerLayer, "profile.docs_s", docNs / 1e9, "s")

    // sketch
    val valueSets = sample(lake.rawColumns, 200).map(_.values.map(_.trim.toLowerCase).filter(_.nonEmpty).distinct)
    val sigNs = probe("sketch.minhash_signature", valueSets, valueSets.size)(MinHash.signature(_))
    report.add(PerLayer, "sketch.minhash_signature_us", medianOf(sigNs, 1e3), "us", sigNs.size)
    report.add(PerLayer, "sketch.lsh_build_ms",
      buildMs("sketch.lsh_build")(new LshEnsemble(textCols.map(p => LshEnsemble.Entry(p.ref, p.sig, p.card)))), "ms", 3)
    val lsh = c.lfs.lsh
    report.latency(PerLayer, "sketch.lsh_col_probe",
      probe("sketch.lsh_probe", colQ, ProbeCalls)(p => lsh.query(p.sig, p.card, k)), "us", Set(50, 99))
    report.latency(PerLayer, "sketch.lsh_doc_probe",
      probe("sketch.lsh_probe", docs, ProbeCalls)(d => lsh.query(d.sig, d.card, k)), "us", Set(50, 99))
    val sketches = colQ.map(p => (p.sig, p.card)) ++ docs.map(d => (d.sig, d.card))
    val candidates = Trace.span("sketch.lsh_threshold_probe")(
      sketches.map { case (sig, card) => lsh.queryThreshold(sig, card, 0.0).size.toLong }.sum)
    val returned = sketches.map { case (sig, card) => lsh.query(sig, card, k).size.toLong }.sum
    report.add(PerLayer, "sketch.lsh_candidates_per_probe", candidates.toDouble / sketches.size, "count", sketches.size)
    report.ratio(PerLayer, "sketch.lsh_useful_frac", returned, candidates)
    report.add(PerLayer, "sketch.est_containment_ns", tight("sketch.est_containment", 200000) { i =>
      val a = colQ(i % colQ.size); val b = colQ((i / colQ.size + i) % colQ.size)
      MinHash.estContainment(a.sig, a.card, b.sig, b.card)
    }, "ns", 200000)

    // embed
    val poolNs = probe("embed.meanpool", colQ, colQ.size)(p => WordVectors.meanPool(p.bag))
    report.add(PerLayer, "embed.meanpool_us", medianOf(poolNs, 1e3), "us", poolNs.size)
    report.add(PerLayer, "embed.annoy_build_ms",
      buildMs("embed.annoy_build")(new AnnoyIndex(textCols.map(p => (p.ref, p.contentEmb)))), "ms", 3)
    val annoyNs = probe("embed.annoy_probe", docs, ProbeCalls)(d => c.lfs.annoy.query(d.contentEmb, k))
    report.latency(PerLayer, "embed.annoy_probe", annoyNs, "us", Set(50, 99))
    report.add(PerLayer, "embed.cosine_ns", tight("embed.cosine", 200000) { i =>
      WordVectors.cosine(colQ(i % colQ.size).contentEmb, docs(i % docs.size).contentEmb)
    }, "ns", 200000)

    // text
    report.add(PerLayer, "text.bm25_build_ms",
      buildMs("text.bm25_build")(new Bm25Index(textCols.map(p => p.ref -> p.bag).toMap)), "ms", 3)
    val contentNs = probe("text.bm25_probe", docs, ProbeCalls)(d => c.lfs.bm25Content.query(d.bag, k))
    report.latency(PerLayer, "text.bm25_content_probe", contentNs, "us", Set(50, 99))
    report.latency(PerLayer, "text.bm25_meta_probe",
      probe("text.bm25_probe", docs, ProbeCalls)(d => c.lfs.bm25Meta.query(Tokenizer.bagOfWords(d.title), k)),
      "us", Set(50, 99))
    val pairs = Vector.fill(2000)((docs(rnd.nextInt(docs.size)), textCols(rnd.nextInt(textCols.size))))
    val scoreNs = probe("text.bm25_score", pairs, pairs.size) { case (d, p) => c.lfs.bm25Content.score(d.bag, p.ref) }
    report.add(PerLayer, "text.bm25_score_us", medianOf(scoreNs, 1e3), "us", scoreNs.size)

    // Table 6 reports one mean throughput per LF index over document probes
    def qps(ns: Seq[Long]): Double = ns.size / (ns.sum / 1e9)
    report.add(Info, "table6.content_search_qps", qps(contentNs), "1/s", contentNs.size)
    report.add(Info, "table6.containment_qps",
      qps(probe("sketch.lsh_probe", docs, ProbeCalls)(d => lsh.query(d.sig, d.card, k))), "1/s", ProbeCalls)
    report.add(Info, "table6.semantic_qps", qps(annoyNs), "1/s", annoyNs.size)

    // label
    val (wl, wlNs) = Stats.timed(Trace.span("label.weak_labels")(c.weakLabels()))
    report.add(PerLayer, "label.weak_labels_s", wlNs / 1e9, "s")
    report.latency(PerLayer, "label.lf_probe", probe("label.lf_probe", docs, ProbeCalls)(c.lfs.probe), "us", Set(50, 99))
    val rel = wl.rel(c) _
    val relPairs = Vector.fill(20000)((docs(rnd.nextInt(docs.size)).id, textCols(rnd.nextInt(textCols.size)).ref))
    val relNs = probe("label.rel", relPairs, relPairs.size)(rel.tupled)
    report.add(PerLayer, "label.rel_us", medianOf(relNs, 1e3), "us", relNs.size)
    val posThreshold = TripletTraining.Config().posThreshold
    report.ratio(PerLayer, "label.rel_pos_frac", relPairs.count(rel.tupled(_) >= posThreshold), relPairs.size)
    for ((name, acc) <- LabelingFunctions.Names.zip(wl.lfAccuracies))
      report.add(PerLayer, s"label.lf_accuracy.$name", acc, "ratio")

    // joint
    val t = trained.getOrElse {
      val cfg = TripletTraining.Config(maxEpochs = ProbeEpochs, convergenceTol = 0.0)
      val (j, ns) = Stats.timed(Trace.span("joint.train")(c.trainJoint(wl, cfg)))
      Trained(ns / 1e9, j.epochs, j.lossHistory.last, j.model)
    }
    report.add(PerLayer, "joint.train_s", t.trainS, "s")
    report.add(PerLayer, "joint.epochs", t.epochs, "count")
    report.add(PerLayer, "joint.epoch_ms", t.trainS * 1e3 / t.epochs, "ms", t.epochs)
    report.add(PerLayer, "joint.final_loss", t.finalLoss, "loss")
    val docDes = docs.map(d => TripletTraining.De(d.id, TripletTraining.encode(d.metaEmb, d.contentEmb)))
    val colDes = textCols.map(p => TripletTraining.De(p.ref, TripletTraining.encode(p.metaEmb, p.contentEmb)))
    val cfg = TripletTraining.Config()
    val batch = sample(colDes, math.max(2, math.ceil(colDes.size * cfg.batchFrac).toInt))
    val anchors = docDes.take(100)
    var triplets = Vector.empty[(Array[Double], Array[Double], Array[Double])]
    val tripletNs = probe("joint.triplets_for", anchors, anchors.size) { a =>
      val ts = TripletTraining.tripletsFor(t.model, a, batch, rel, cfg)
      triplets ++= ts
      ts
    }
    report.add(PerLayer, "joint.triplets_for_ms", medianOf(tripletNs, 1e6), "ms", tripletNs.size)
    if (triplets.isEmpty) // no anchor had both a positive and a negative in the batch
      triplets = Vector.tabulate(50)(i => (docDes(i % docDes.size).enc, colDes(i % colDes.size).enc,
        colDes((i + 1) % colDes.size).enc))
    val stepNs = probe("joint.triplet_step", triplets, math.max(triplets.size, 200)) { case (a, p, n) =>
      t.model.tripletStep(a, p, n, cfg.margin, cfg.lr)
    }
    report.add(PerLayer, "joint.triplet_step_us", medianOf(stepNs, 1e3), "us", stepNs.size)
    val embedNs = probe("joint.embed", colDes.take(200), ProbeCalls)(d => t.model.embed(d.enc))
    report.add(PerLayer, "joint.embed_us", medianOf(embedNs, 1e3), "us", embedNs.size)

    // discover
    val joinQ = sample(c.colProfiles.filter(_.hasTag(Tags.Joinable)), 200)
    report.latency(PerLayer, "discover.join_topk",
      probe("discover.join_topk", joinQ, ProbeCalls)(p => c.syntacticIndex.topK(p, k)), "us", Set(50, 99))
    report.latency(PerLayer, "discover.crossmodal",
      probe("discover.crossmodal", docs, SlowCalls)(d => DocToTable.embeddingRank(d.contentEmb, textCols, _.contentEmb, k)),
      "us")
    var scored = 0L
    val counting: UnionDiscovery.ColumnScorer = (a, b) => { scored += 1; UnionDiscovery.ensembleScore(a, b) }
    val unionNs = probe("discover.union_topk", unionProbes, unionProbes.size) { case (idx, q, kq) =>
      idx.topK(q, kq, counting)
    }
    val queries = 2L * unionProbes.size // warm-up pass and timed pass
    report.latency(PerLayer, "discover.union_topk", unionNs, "ms")
    report.add(PerLayer, "discover.union_pairs_per_query", scored.toDouble / queries, "count", queries)
    val (tablePairs, topPairs) = unionProbes.map { case (idx, q, kq) =>
      ((idx.tables.size - 1).toLong, idx.topK(q, kq, UnionDiscovery.ensembleScore).size.toLong)
    }.unzip
    report.ratio(PerLayer, "discover.union_useful_frac", topPairs.sum, tablePairs.sum)
    val byTable = c.colProfiles.groupBy(_.table).values.toVector.sortBy(_.head.table)
    val tablePairsQ = Vector.fill(200)((byTable(rnd.nextInt(byTable.size)), byTable(rnd.nextInt(byTable.size))))
    val tsNs = probe("discover.table_score", tablePairsQ, tablePairsQ.size) { case (a, b) =>
      UnionDiscovery.tableScore(a, b, UnionDiscovery.ensembleScore)
    }
    report.add(PerLayer, "discover.table_score_us", medianOf(tsNs, 1e3), "us", tsNs.size)

    // ekg
    val contentSrqlNs = probe("ekg.srql_content", docs, ProbeCalls)(d => srql.contentSearch(d.title, "Table"))
    report.add(PerLayer, "ekg.srql_content_us", medianOf(contentSrqlNs, 1e3), "us", contentSrqlNs.size)
    val crossSrqlNs = probe("ekg.srql_crossmodal", docs, SlowCalls)(d => srql.crossModalSearch(d.id, k))
    report.add(PerLayer, "ekg.srql_crossmodal_us", medianOf(crossSrqlNs, 1e3), "us", crossSrqlNs.size)
    report.add(PerLayer, "ekg.edges", srql.ekg.size, "count")

    report.note(s"layer probes done (sink ${sink & 0xff})")
  }
}
