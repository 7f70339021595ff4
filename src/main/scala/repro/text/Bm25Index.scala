package repro.text

import scala.collection.mutable

/** In-memory inverted index with BM25 and LM-Dirichlet ranking.
  *
  * Substitute for the locally-hosted Elasticsearch engine the paper probes
  * (§3 "Indexing Profiler-Generated Sketches", Table 6). CMDL builds two such
  * indexes per modality — one over content bags and one over metadata
  * (names/titles) — and uses top-k probes both as discovery primitives and as
  * weak-supervision labeling functions (Fig. 3).
  *
  * The postings are built in one pass over the documents into primitive
  * arrays: term t's postings are `docIdx`/`tfs` at `start(t) until
  * start(t + 1)`, doc indexes ascending, with one precomputed BM25 `idf` per
  * term. `scoreAll` walks the query terms' postings into one score per
  * document; `query` ranks that array, and `score` binary-searches a term's
  * doc indexes and adds each term's contribution in the same order, so all
  * three agree bit for bit. Probes rank by (-score, id) with a bounded top-k
  * insertion, not a full sort.
  *
  * @param docs id -> bag of (already preprocessed) terms
  */
final class Bm25Index(docs: Map[String, Seq[String]], k1: Double = 1.2, b: Double = 0.75) {

  private val ids: IndexedSeq[String] = docs.keys.toIndexedSeq.sorted
  private val idOf: Map[String, Int]  = ids.zipWithIndex.toMap
  private val lens: Array[Int]        = ids.map(docs(_).size).toArray
  private val avgdl: Double           = if (ids.isEmpty) 0.0 else lens.sum.toDouble / ids.size
  private val corpusLen: Long         = lens.map(_.toLong).sum

  private val termIdx = mutable.HashMap.empty[String, Int]
  private val (start, docIdx, tfs) = {
    // (term, doc, tf) triples in doc order, then a stable counting sort by term
    val tTerm = mutable.ArrayBuilder.make[Int]
    val tDoc = mutable.ArrayBuilder.make[Int]
    val tTf = mutable.ArrayBuilder.make[Int]
    val tf = mutable.HashMap.empty[String, Int]
    for (i <- ids.indices) {
      tf.clear()
      for (t <- docs(ids(i))) tf.update(t, tf.getOrElse(t, 0) + 1)
      for ((t, n) <- tf) {
        tTerm += termIdx.getOrElseUpdate(t, termIdx.size); tDoc += i; tTf += n
      }
    }
    val (term, doc, freq) = (tTerm.result(), tDoc.result(), tTf.result())
    val start = new Array[Int](termIdx.size + 1)
    for (t <- term) start(t + 1) += 1
    for (t <- 0 until termIdx.size) start(t + 1) += start(t)
    val next = start.clone()
    val docIdx = new Array[Int](term.length)
    val tfs = new Array[Int](term.length)
    for (j <- term.indices) {
      val at = next(term(j)); next(term(j)) += 1
      docIdx(at) = doc(j); tfs(at) = freq(j)
    }
    (start, docIdx, tfs)
  }
  private val idf: Array[Double] = Array.tabulate(termIdx.size) { t =>
    val n = start(t + 1) - start(t)
    math.log(1.0 + (ids.size - n + 0.5) / (n + 0.5))
  }
  // corpus frequency per term, for LM smoothing only
  private lazy val cf: Array[Long] = Array.tabulate(termIdx.size) { t =>
    var s = 0L; var j = start(t)
    while (j < start(t + 1)) { s += tfs(j); j += 1 }
    s
  }

  def size: Int = ids.size
  def vocabulary: Set[String] = termIdx.keySet.toSet

  /** BM25 weight of one posting (term weight `w`, frequency `tf`, doc `i`). */
  private def weight(w: Double, tf: Int, i: Int): Double =
    w * (tf * (k1 + 1) / (tf + k1 * (1 - b + b * lens(i) / math.max(avgdl, 1e-9))))

  /** Position of document `id` in `scoreAll`'s array, or -1 if it is not indexed. */
  def indexOf(id: String): Int = idOf.getOrElse(id, -1)

  /** BM25 score of every document for a query, document `id` at `indexOf(id)`:
    * each equals `score(terms, id)` bit for bit.
    */
  def scoreAll(terms: Seq[String]): Array[Double] = {
    val scores = new Array[Double](ids.size)
    for (t <- terms.distinct; ti <- termIdx.get(t)) {
      val w = idf(ti)
      var j = start(ti)
      while (j < start(ti + 1)) { scores(docIdx(j)) += weight(w, tfs(j), docIdx(j)); j += 1 }
    }
    scores
  }

  /** Top-k documents by BM25 (TF/IDF probabilistic relevance [58]). */
  def query(terms: Seq[String], k: Int): Seq[(String, Double)] = topK(scoreAll(terms), k)

  /** Top-k documents by query-likelihood with Dirichlet smoothing (the "LM
    * Dirichlet" elastic-search setting of §6.1), mu defaulting to 2000.
    */
  def queryLmDirichlet(terms: Seq[String], k: Int, mu: Double = 2000.0): Seq[(String, Double)] = {
    val scores = new Array[Double](ids.size)
    var touched = false
    for (t <- terms; ti <- termIdx.get(t)) {
      touched = true
      val pC = cf(ti).toDouble / math.max(corpusLen, 1L)
      val end = start(ti + 1)
      var j = start(ti)
      for (i <- ids.indices) {
        var tf = 0
        if (j < end && docIdx(j) == i) { tf = tfs(j); j += 1 }
        scores(i) += math.log((tf + mu * pC) / (lens(i) + mu))
      }
    }
    if (!touched) Seq.empty else topK(scores, k)
  }

  /** The k nonzero scores ranked by (-score, id). `ids` is sorted, so that is
    * (-score, index): scanning indexes upwards, a doc displaces a ranked one
    * only with a strictly higher score.
    */
  private def topK(scores: Array[Double], k: Int): Seq[(String, Double)] = {
    val top = new Array[Int](math.max(0, math.min(k, scores.length)))
    var n = 0
    var i = 0
    while (i < scores.length && top.nonEmpty) {
      val s = scores(i)
      if (s != 0.0 && (n < top.length || s > scores(top(n - 1)))) {
        var p = math.min(n, top.length - 1)
        while (p > 0 && s > scores(top(p - 1))) { top(p) = top(p - 1); p -= 1 }
        top(p) = i
        if (n < top.length) n += 1
      }
      i += 1
    }
    top.iterator.take(n).map(i => (ids(i), scores(i))).toSeq
  }

  /** Score of a single document for a query (0 if no term matches): the
    * score `query` gives it, bit for bit.
    */
  def score(terms: Seq[String], id: String): Double =
    idOf.get(id).map { i =>
      var s = 0.0
      for (t <- terms.distinct; ti <- termIdx.get(t)) {
        val j = java.util.Arrays.binarySearch(docIdx, start(ti), start(ti + 1), i)
        if (j >= 0) s += weight(idf(ti), tfs(j), i)
      }
      s
    }.getOrElse(0.0)
}
