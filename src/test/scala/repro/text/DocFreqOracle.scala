package repro.text

import repro.profile.Profiler

/** The profiler's corpus-level document-frequency filter as a plain loop over
  * bags, kept as a test oracle: a term is dropped when more than `maxDfFrac`
  * of the documents contain it and more than one document does (the guard
  * that keeps the terms of a degenerate corpus). `Profiler.profileDocs`'
  * driver-side count must keep exactly the terms this keeps.
  */
object DocFreqOracle {
  def docFreqFilter(bags: Seq[Seq[String]], maxDfFrac: Double = Profiler.MaxDfFrac): Seq[Seq[String]] = {
    val n = bags.size.toDouble
    val df = bags.flatMap(_.distinct).groupBy(identity).view.mapValues(_.size).toMap
    val drop = (t: String) => df(t) > maxDfFrac * n && df(t) > 1
    bags.map(_.filterNot(drop))
  }
}
