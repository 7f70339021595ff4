package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.TableBenches

/** spark-submit entrypoints, one per evaluation table.
  *
  * Usage: `spark-submit --class repro.jobs.Table3Job repro.jar [scale]`
  * where `scale` (default 1.0) scales the synthetic lakes.
  */
object Jobs {
  def session(): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cmdl-repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scaleOf(args: Array[String]): Double =
    args.headOption.flatMap(_.toDoubleOption).getOrElse(1.0)
}

object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val l = TableBenches.lakes(Jobs.scaleOf(args))
      println("=== Table 1: Overview of the evaluation datasets ===")
      println(TableBenches.render(TableBenches.table1(l)))
    } finally spark.stop()
  }
}

object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val l = TableBenches.lakes(Jobs.scaleOf(args))
      println("=== Table 2: Overview of the evaluation benchmarks ===")
      println(TableBenches.render(TableBenches.table2(l)))
    } finally spark.stop()
  }
}

object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val ctx = TableBenches.context(spark, Jobs.scaleOf(args))
      println("=== Table 3: Evaluation of syntactic join discovery ===")
      println(TableBenches.renderTable3(TableBenches.table3(ctx)))
    } finally spark.stop()
  }
}

object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val ctx = TableBenches.context(spark, Jobs.scaleOf(args))
      println("=== Table 4: Evaluation of PK-FK join discovery (Benchmark 2D) ===")
      println(TableBenches.renderTable4(TableBenches.table4(ctx)))
    } finally spark.stop()
  }
}

object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val ctx = TableBenches.context(spark, Jobs.scaleOf(args))
      println("=== Table 5: Comparing individual similarity metrics ===")
      println(TableBenches.renderTable5(TableBenches.table5(ctx)))
    } finally spark.stop()
  }
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try {
      val ctx = TableBenches.context(spark, Jobs.scaleOf(args))
      println("=== Table 6: Query throughput for different labeling functions ===")
      println(TableBenches.renderTable6(TableBenches.table6(ctx)))
    } finally spark.stop()
  }
}

/** Trains the joint model on one lake and prints what identifies the result
  * bit for bit: the epoch count, a SHA-256 digest of the raw IEEE-754 bits of
  * the loss history and one of the joint embeddings of every DE. Two commits
  * that train the same model print the same digests. It also splits the
  * training wall time into weak-label evaluations, forward passes for hard
  * sampling and SGD steps.
  *
  * Usage: `spark-submit --class repro.jobs.TrainJointJob repro.jar
  * [mlOpen|ukOpen|pharma] [scale] [epochs]`. With `epochs`, training runs
  * exactly that many epochs (early stopping off); without it, the default
  * configuration decides.
  */
object TrainJointJob {
  import java.security.MessageDigest

  import repro.core.Cmdl
  import repro.joint.TripletTraining
  import repro.lake.LakeGen

  /** SHA-256 (hex) of the raw IEEE-754 bits of `xs`, in order. */
  def digest(xs: Iterator[Double]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    for (x <- xs) { buf.clear(); buf.putLong(java.lang.Double.doubleToRawLongBits(x)); md.update(buf.array()) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  def main(args: Array[String]): Unit = {
    val lakeName = args.headOption.getOrElse("mlOpen")
    val scale = args.lift(1).flatMap(_.toDoubleOption).getOrElse(1.0)
    val cfg = args.lift(2).flatMap(_.toIntOption) match {
      case Some(n) => TripletTraining.Config(maxEpochs = n, convergenceTol = 0.0)
      case None    => TripletTraining.Config()
    }
    val lake = lakeName match {
      case "mlOpen" => LakeGen.mlOpen(scale)
      case "ukOpen" => LakeGen.ukOpen(scale)
      case "pharma" => LakeGen.pharma(scale)
      case other    => sys.error(s"unknown lake '$other'; expected mlOpen, ukOpen or pharma")
    }
    val spark = Jobs.session()
    try {
      val cmdl = new Cmdl(spark, lake)
      val labels = cmdl.weakLabels()
      val t0 = System.nanoTime()
      val joint = cmdl.trainJoint(labels, cfg)
      val wallS = (System.nanoTime() - t0) / 1e9
      val s = joint.stats
      println(s"=== Joint training: $lakeName at scale $scale, ${cmdl.docProfiles.size} docs x " +
        s"${cmdl.lfs.textCols.size} text columns ===")
      println(s"epochs            ${joint.epochs}")
      val embs = (joint.docEmb ++ joint.colEmb).toSeq.sortBy(_._1).iterator.flatMap(_._2.iterator.map(_.toDouble))
      println(s"loss digest       ${digest(joint.lossHistory.iterator)}")
      println(s"embedding digest  ${digest(embs)}")
      println(f"final loss        ${joint.lossHistory.lastOption.getOrElse(0.0)}%.17g " +
        f"(bits ${joint.lossHistory.lastOption.map(java.lang.Double.doubleToRawLongBits).getOrElse(0L)}%016x)")
      println(f"train + apply     $wallS%.3f s")
      println(f"rel memo fill     ${s.relNs / 1e9}%.3f s  (${s.relCalls} rel calls)")
      println(f"forward passes    ${s.forwardNs / 1e9}%.3f s  (${s.forwardPasses} passes)")
      println(f"SGD               ${s.stepNs / 1e9}%.3f s  (${s.steps} steps)")
    } finally spark.stop()
  }
}
