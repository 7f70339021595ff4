package repro.lake

/** Statistics of the generated lakes and benchmarks — the reproduction of
  * Table 1 (lake overview) and Table 2 (benchmark overview, including the
  * median query cardinality ratio mQCR).
  */
object BenchStats {

  final case class Table1Row(
      lake: String, collection: String, format: String,
      numTables: Int, numDEs: Int, sizeBytes: Long, pctNumeric: Double)

  final case class Table2Row(
      category: String, benchmark: String, lake: String, datasets: String,
      numQueries: Int, avgAnswerSize: Double, mQcr: Double)

  /** Storage format labels matching the paper's Table 1. */
  private val Formats: Map[String, String] = Map(
    "DrugBank" -> "CSV", "ChEMBL" -> "MySQL", "ChEBI" -> "MySQL",
    "PubMed" -> "Text", "DrugBank-Synthetic" -> "CSV",
    "Govt. data" -> "CSV", "Synthetic text" -> "Text",
    "SS" -> "CSV", "MS" -> "CSV", "LS" -> "CSV", "Reviews" -> "Text")

  def table1(lakes: Seq[Lake]): Seq[Table1Row] =
    lakes.flatMap { lake =>
      val tabular = lake.tables.groupBy(_.collection).toSeq.sortBy(_._1).map {
        case (coll, ts) =>
          val cols = ts.flatMap(_.columns)
          Table1Row(lake.name, coll, Formats.getOrElse(coll, "CSV"),
            numTables = ts.size,
            numDEs = cols.size,
            sizeBytes = cols.map(c => c.values.map(_.length + 1L).sum).sum,
            pctNumeric = if (cols.isEmpty) 0.0 else 100.0 * cols.count(_.dtype == "numeric") / cols.size)
      }
      val textual = lake.docs.groupBy(_.collection).toSeq.sortBy(_._1).map {
        case (coll, ds) =>
          Table1Row(lake.name, coll, Formats.getOrElse(coll, "Text"),
            numTables = 0,
            numDEs = ds.size,
            sizeBytes = ds.map(d => d.title.length + d.text.length + 2L).sum,
            pctNumeric = 0.0)
      }
      tabular ++ textual
    }

  def table2(pharma: Lake, ukOpen: Lake, mlOpen: Lake): Seq[Table2Row] = {
    val lakes = Seq(pharma, ukOpen, mlOpen).map(lake => (lake, columnCards(lake)))

    val docRows = for {
      (lake, cards) <- lakes if lake.docBenches.nonEmpty
      bagCards = lake.docs.map(d => d.id -> d.bagOfWords.distinct.size.toLong).toMap // mQCR's query side
      b <- lake.docBenches
    } yield {
      val qcrs = for {
        (doc, cols) <- b.docColumns.toSeq
        c <- cols
        card = cards.getOrElse(c, 0L) if card > 0
      } yield bagCards.getOrElse(doc, 0L).toDouble / card
      Table2Row("Doc-to-Table", b.id, lake.name, datasetsLabel(b.id),
        numQueries = b.queries.size,
        avgAnswerSize = avg(b.queries.values.map(_.size.toDouble)),
        mQcr = median(qcrs))
    }

    val joinRows = for {
      (lake, cards) <- lakes
      b <- lake.joinBenches
    } yield {
      val qcrs = for {
        (q, answers) <- b.queries.toSeq
        a <- answers
        cq = cards.getOrElse(q, 0L); ca = cards.getOrElse(a, 0L) if cq > 0 && ca > 0
      } yield math.min(cq, ca).toDouble / math.max(cq, ca)
      Table2Row("Table-J-Table (syntactic)", b.id, lake.name, b.workload,
        numQueries = b.queries.size,
        avgAnswerSize = avg(b.queries.values.map(_.size.toDouble)),
        mQcr = median(qcrs))
    }

    val pkfkRows = for {
      (lake, cards) <- lakes
      b <- lake.pkfkBenches
    } yield {
      val qcrs = b.gt.toSeq.flatMap { case (pk, fk) =>
        val cp = cards.getOrElse(pk, 0L); val cf = cards.getOrElse(fk, 0L)
        if (cp > 0 && cf > 0) Some(cf.toDouble / cp) else None
      }
      Table2Row("Table-J-Table (PK-FK)", b.id, lake.name, b.database,
        numQueries = 1,
        avgAnswerSize = b.gt.size.toDouble,
        mQcr = median(qcrs))
    }

    val unionRows = for {
      (lake, _) <- lakes
      b <- lake.unionBenches
    } yield {
      val medCardOfTable: Map[String, Double] = lake.tables.map { t =>
        t.name -> median(t.columns.map(c => c.values.distinct.size.toDouble))
      }.toMap
      val qcrs = for {
        (q, answers) <- b.queries.toSeq
        a <- answers
        cq = medCardOfTable.getOrElse(q, 0.0); ca = medCardOfTable.getOrElse(a, 0.0)
        if cq > 0 && ca > 0
      } yield math.min(cq, ca) / math.max(cq, ca)
      Table2Row("Table-U-Table", b.id, lake.name, b.workload,
        numQueries = b.queries.size,
        avgAnswerSize = avg(b.queries.values.map(_.size.toDouble)),
        mQcr = median(qcrs))
    }

    docRows ++ joinRows ++ pkfkRows ++ unionRows
  }

  private def datasetsLabel(benchId: String): String = benchId match {
    case "1A" => "Synthetic text + Govt. data"
    case "1B" => "PubMed + DrugBank"
    case "1C" => "Reviews + MS"
    case other => other
  }

  /** Exact distinct cardinality per column ref of a lake. */
  def columnCards(lake: Lake): Map[ColRef, Long] =
    lake.rawColumns.map(c => ColRef(c.table, c.column) -> c.normValues.distinct.size.toLong).toMap

  def median(xs: Iterable[Double]): Double = {
    val v = xs.toVector.sorted
    if (v.isEmpty) 0.0
    else if (v.size % 2 == 1) v(v.size / 2)
    else (v(v.size / 2 - 1) + v(v.size / 2)) / 2.0
  }

  def avg(xs: Iterable[Double]): Double = {
    val v = xs.toVector
    if (v.isEmpty) 0.0 else v.sum / v.size
  }
}
