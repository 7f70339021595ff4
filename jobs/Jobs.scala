package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.TableBenches

/** Shared helpers of the spark-submit entrypoints below. */
object Jobs {
  def session(): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cmdl-repro")
      .getOrCreate()

  /** The synthetic lake named `name` at `scale`. */
  def lake(name: String, scale: Double): repro.lake.Lake = name match {
    case "mlOpen" => repro.lake.LakeGen.mlOpen(scale)
    case "ukOpen" => repro.lake.LakeGen.ukOpen(scale)
    case "pharma" => repro.lake.LakeGen.pharma(scale)
    case other    => sys.error(s"unknown lake '$other'; expected mlOpen, ukOpen or pharma")
  }

  /** SHA-256 (hex) of `xs`, each as 8 big-endian bytes, in order. */
  def digestLongs(xs: Iterator[Long]): String = sha256 { md =>
    val buf = java.nio.ByteBuffer.allocate(8)
    for (x <- xs) { buf.clear(); buf.putLong(x); md.update(buf.array()) }
  }

  /** SHA-256 (hex) of the raw IEEE-754 bits of `xs`, in order. */
  def digest(xs: Iterator[Double]): String = digestLongs(xs.map(java.lang.Double.doubleToRawLongBits))

  /** SHA-256 (hex) of the UTF-8 lines `xs`, each newline-terminated. */
  def digestLines(xs: Iterator[String]): String = sha256 { md =>
    for (x <- xs) md.update((x + "\n").getBytes(java.nio.charset.StandardCharsets.UTF_8))
  }

  /** `query` followed by each ranked answer and the raw bits of its score. */
  def rankedLine(query: String, ranked: Seq[(String, Double)]): String =
    (query +: ranked.map { case (r, s) => f"$r:${java.lang.Double.doubleToRawLongBits(s)}%016x" }).mkString(" ")

  private def sha256(feed: java.security.MessageDigest => Unit): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    feed(md)
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Prints one evaluation table, headed by `TableBenches.header`.
  *
  * Usage: `spark-submit --class repro.jobs.TableJob repro.jar <1-6> [scale]`
  * where `scale` (default 1.0) scales the synthetic lakes.
  */
object TableJob {
  import TableBenches._

  def main(args: Array[String]): Unit = {
    val n = args.headOption.flatMap(_.toIntOption).filter(Titles.contains)
      .getOrElse(sys.error("usage: TableJob <1-6> [scale]"))
    val scale = args.lift(1).flatMap(_.toDoubleOption).getOrElse(1.0)
    val spark = Jobs.session()
    try {
      def ctx = context(spark, scale)
      println(header(n))
      println(n match {
        case 1 => render(table1(lakes(scale)))
        case 2 => render(table2(lakes(scale)))
        case 3 => renderTable3(table3(ctx))
        case 4 => renderTable4(table4(ctx))
        case 5 => renderTable5(table5(ctx))
        case _ => renderTable6(table6(ctx))
      })
    } finally spark.stop()
  }
}

/** Trains the joint model on one lake and prints what identifies the result
  * bit for bit: the epoch count, a SHA-256 digest of the raw IEEE-754 bits of
  * the loss history, one of the joint embeddings of every DE and one of the
  * joint-space `crossModalSearch` answer (tables and raw score bits, topn 10)
  * of every document. Two commits that train the same model print the same
  * digests.
  *
  * It trains twice in the same JVM. The first run pays for the JIT, so the
  * timings are the second run's: the training wall time split into the
  * batches' positive/negative split, forward passes for hard sampling (with the lanes
  * per batched call) and SGD steps. It also counts the anchors that gave no
  * triplet and the hard negatives pooled, and reports how far the weak
  * labels' last EM iteration still moved a posterior. If the two runs'
  * loss or embedding digests differ, it prints `MISMATCH` and exits with
  * status 1.
  *
  * Usage: `spark-submit --class repro.jobs.TrainJointJob repro.jar
  * [mlOpen|ukOpen|pharma] [scale] [epochs]`. With `epochs`, training runs
  * exactly that many epochs (early stopping off); without it, the default
  * configuration decides.
  */
object TrainJointJob {
  import repro.core.Cmdl
  import repro.ekg.Srql
  import repro.joint.TripletTraining
  import Jobs.{digest, digestLines, rankedLine}

  def main(args: Array[String]): Unit = {
    val lakeName = args.headOption.getOrElse("mlOpen")
    val scale = args.lift(1).flatMap(_.toDoubleOption).getOrElse(1.0)
    val cfg = args.lift(2).flatMap(_.toIntOption) match {
      case Some(n) => TripletTraining.Config(maxEpochs = n, convergenceTol = 0.0)
      case None    => TripletTraining.Config()
    }
    val lake = Jobs.lake(lakeName, scale)
    val spark = Jobs.session()
    var mismatch = false
    try {
      val cmdl = new Cmdl(spark, lake)
      val labels = cmdl.weakLabels()
      val runs = Seq.fill(2) {
        val t0 = System.nanoTime()
        val joint = cmdl.trainJoint(labels, cfg)
        (joint, (System.nanoTime() - t0) / 1e9)
      }
      def digests(joint: cmdl.Joint) = {
        val embs = (joint.docEmb ++ joint.colEmb).toSeq.sortBy(_._1).iterator.flatMap(_._2.iterator.map(_.toDouble))
        (digest(joint.lossHistory.iterator), digest(embs))
      }
      val Seq((first, coldS), (joint, wallS)) = runs
      val (lossDigest, embDigest) = digests(joint)
      val s = joint.stats
      println(s"=== Joint training: $lakeName at scale $scale, ${cmdl.docProfiles.size} docs x " +
        s"${cmdl.lfs.textCols.size} text columns ===")
      println(s"epochs            ${joint.epochs}")
      println(s"loss digest       $lossDigest")
      println(s"embedding digest  $embDigest")
      val srql = new Srql(cmdl, Some(joint))
      println(s"joint crossmodal  ${digestLines(cmdl.docProfiles.sortBy(_.id).iterator.map(d =>
        rankedLine(d.id, srql.crossModalSearch(d.id, 10).items)))}")
      println(f"final loss        ${joint.lossHistory.lastOption.getOrElse(0.0)}%.17g " +
        f"(bits ${joint.lossHistory.lastOption.map(java.lang.Double.doubleToRawLongBits).getOrElse(0L)}%016x)")
      println(f"train + apply     $wallS%.3f s  (second run; the first, $coldS%.3f s, warms the JIT)")
      println(f"label split       ${s.relNs / 1e9}%.3f s")
      println(f"forward passes    ${s.forwardNs / 1e9}%.3f s  (${s.forwardPasses} passes in ${s.forwardCalls} calls, " +
        f"${s.forwardPasses.toDouble / math.max(1L, s.forwardCalls)}%.1f lanes per call)")
      println(f"SGD               ${s.stepNs / 1e9}%.3f s  (${s.steps} steps)")
      println(s"anchors skipped   ${s.noPosAnchors} without a positive, ${s.noNegAnchors} without a hard negative " +
        s"(${s.hardNegatives} hard negatives pooled)")
      println(f"EM last change    ${labels.emLastMaxChange}%.3e (largest posterior move in the last iteration)")
      val (firstLoss, firstEmb) = digests(first)
      mismatch = firstLoss != lossDigest || firstEmb != embDigest
      if (mismatch)
        println(s"MISMATCH          first run: loss digest $firstLoss, embedding digest $firstEmb")
    } finally spark.stop()
    if (mismatch) sys.exit(1)
  }
}

/** Builds a lake's `Cmdl` and prints what identifies its set-up bit for bit:
  * SHA-256 digests of every column and document profile's `sig`, `contentEmb`
  * and `metaEmb` (sorted by ref and id), of `lfs.probe` for every document, of
  * `lfs.annoy.query` (k = 10, ids and raw score bits) for the content
  * embedding of every document and text column, of `syntacticIndex.topK` and the Aurum and D3L baselines' `topK` (k = 10,
  * each index over the whole lake) for every joinable column, of the CMDL and
  * Aurum PK-FK links of every collection, of the full syntactic-LF
  * candidate set, `lfs.lsh.queryThreshold` at 0.0, for every document and
  * text column, and of SRQL's table answers at topn 10: Table-mode
  * `contentSearch` of every document's title, solo `crossModalSearch` of every
  * document and `pkfk` of every table, and of the raw bits of
  * `lfs.pairFeatures` for every document (sorted by id) and text column
  * (sorted by ref). Two commits whose set-up agrees print the same digests.
  *
  * It then times set-up again in the warmed JVM, split into column profiling,
  * document profiling, the labeling functions' four indexes and the other
  * index builds, and checks that the second profiling pass gives the same
  * digests.
  *
  * Usage: `spark-submit --class repro.jobs.SetupDigestJob repro.jar
  * [mlOpen|ukOpen|pharma] [scale]`.
  */
object SetupDigestJob {
  import repro.baseline.{Aurum, D3L}
  import repro.core.Cmdl
  import repro.discover.JoinDiscovery
  import repro.ekg.Srql
  import repro.label.LabelingFunctions
  import repro.lake.ColRef
  import repro.profile.{ColumnProfile, DocProfile, Profiler, Tags}
  import repro.text.Bm25Index
  import Jobs.{digest, digestLines, digestLongs, rankedLine}

  /** Digest lines of the sketches of both modalities, by kind. */
  def profileDigests(cols: Seq[ColumnProfile], docs: Seq[DocProfile]): Seq[(String, String)] = {
    val cs = cols.sortBy(_.ref)
    val ds = docs.sortBy(_.id)
    def floats(xs: Seq[Array[Float]]) = digest(xs.iterator.flatMap(_.iterator.map(_.toDouble)))
    Seq(
      "column refs" -> digestLines(cs.iterator.map(_.ref)),
      "column sig" -> digestLongs(cs.iterator.flatMap(_.sig.iterator)),
      "column contentEmb" -> floats(cs.map(_.contentEmb)),
      "column metaEmb" -> floats(cs.map(_.metaEmb)),
      "doc ids" -> digestLines(ds.iterator.map(_.id)),
      "doc sig" -> digestLongs(ds.iterator.flatMap(_.sig.iterator)),
      "doc contentEmb" -> floats(ds.map(_.contentEmb)),
      "doc metaEmb" -> floats(ds.map(_.metaEmb)),
    )
  }

  private def joinLine(query: String, ranked: Seq[(ColRef, Double)]): String =
    rankedLine(query, ranked.map { case (r, s) => (r.render, s) })

  private def timed[A](label: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    println(f"  $label%-22s ${(System.nanoTime() - t0) / 1e6}%9.1f ms")
    a
  }

  def main(args: Array[String]): Unit = {
    val lakeName = args.headOption.getOrElse("mlOpen")
    val scale = args.lift(1).flatMap(_.toDoubleOption).getOrElse(1.0)
    val lake = Jobs.lake(lakeName, scale)
    val spark = Jobs.session()
    try {
      val t0 = System.nanoTime()
      val cmdl = new Cmdl(spark, lake)
      val joinable = cmdl.colProfiles.filter(_.hasTag(Tags.Joinable)).sortBy(_.ref)
      println(s"=== Set-up: $lakeName at scale $scale, ${cmdl.colProfiles.size} columns " +
        s"(${cmdl.lfs.textCols.size} text, ${joinable.size} joinable), ${cmdl.docProfiles.size} docs ===")
      println(f"first set-up (cold JVM)  ${(System.nanoTime() - t0) / 1e9}%.3f s")

      val profiles = profileDigests(cmdl.colProfiles, cmdl.docProfiles)
      for ((kind, d) <- profiles) println(f"$kind%-18s $d")
      val probes = cmdl.docProfiles.sortBy(_.id).iterator.map { d =>
        val p = cmdl.lfs.probe(d)
        (d.id +: LabelingFunctions.Names.map(n => n + "=" + p(n).toSeq.sorted.mkString(","))).mkString(" ")
      }
      println(f"${"lfs.probe"}%-18s ${digestLines(probes)}")
      val embProbes = cmdl.docProfiles.sortBy(_.id).iterator.map(d => ("doc " + d.id, d.contentEmb)) ++
        cmdl.lfs.textCols.sortBy(_.ref).iterator.map(c => ("col " + c.ref, c.contentEmb))
      println(f"${"annoy probe"}%-18s ${digestLines(embProbes.map { case (id, q) =>
        rankedLine(id, cmdl.lfs.annoy.query(q, 10)) })}")
      val joins = joinable.iterator.map(c => joinLine(c.ref, cmdl.syntacticIndex.topK(c, 10)))
      println(f"${"syntactic topK"}%-18s ${digestLines(joins)}")
      for ((name, topK) <- Seq(
          "aurum topK" -> new Aurum.SyntacticIndex(cmdl.colProfiles).topK _,
          "d3l topK" -> new D3L.SyntacticIndex(cmdl.colProfiles).topK _)) {
        println(f"$name%-18s ${digestLines(joinable.iterator.map(c => joinLine(c.ref, topK(c, 10))))}")
      }
      val collections = cmdl.colProfiles.map(_.collection).distinct.sorted
      for ((name, pkfk) <- Seq[(String, Seq[ColumnProfile] => Set[(ColRef, ColRef)])](
          "pkfk cmdl" -> (ps => JoinDiscovery.pkfk(ps)), "pkfk aurum" -> (ps => Aurum.pkfk(ps)))) {
        val links = collections.iterator.map { coll =>
          (coll +: pkfk(cmdl.profilesIn(coll)).toSeq.map { case (p, f) => p.render + "->" + f.render }.sorted)
            .mkString(" ")
        }
        println(f"$name%-18s ${digestLines(links)}")
      }
      val lshProbes = cmdl.docProfiles.sortBy(_.id).iterator.map(d => ("doc " + d.id, d.sig, d.card)) ++
        cmdl.lfs.textCols.sortBy(_.ref).iterator.map(c => ("col " + c.ref, c.sig, c.card))
      val candidates = lshProbes.map { case (id, sig, card) => rankedLine(id, cmdl.lfs.lsh.queryThreshold(sig, card, 0.0)) }
      println(f"${"lsh candidates"}%-18s ${digestLines(candidates)}")
      val srql = new Srql(cmdl)
      val docOrder = cmdl.docProfiles.sortBy(_.id)
      val tables = cmdl.colProfiles.map(_.table).distinct.sorted
      println(f"${"srql content"}%-18s ${digestLines(docOrder.iterator.map(d =>
        rankedLine(d.id, srql.contentSearch(d.title, "Table", 10).items)))}")
      println(f"${"srql crossmodal"}%-18s ${digestLines(docOrder.iterator.map(d =>
        rankedLine(d.id, srql.crossModalSearch(d.id, 10).items)))}")
      println(f"${"srql pkfk"}%-18s ${digestLines(tables.iterator.map(t => rankedLine(t, srql.pkfk(t, 10).items)))}")
      val textByRef = cmdl.lfs.textCols.sortBy(_.ref)
      println(f"${"label features"}%-18s ${digest(docOrder.iterator.flatMap(d =>
        textByRef.iterator.flatMap(c => cmdl.lfs.pairFeatures(d, c).iterator)))}")

      println("warm set-up split:")
      val cols = timed("profile columns")(Profiler.profileColumns(spark, lake.rawColumns))
      val docs = timed("profile docs")(Profiler.profileDocs(spark, lake.docs))
      timed("labeling functions")(new LabelingFunctions(cols))
      timed("bm25 docs")(new Bm25Index(docs.map(d => d.id -> d.bag).toMap))
      timed("syntactic join index")(new JoinDiscovery.SyntacticIndex(cols))
      println(s"re-profiling gives the same digests: ${profileDigests(cols, docs) == profiles}")
    } finally spark.stop()
  }
}
