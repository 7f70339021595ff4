package repro.lake

import org.scalatest.funsuite.AnyFunSuite
import repro.sketch.Similarity

class LakeGenSpec extends AnyFunSuite {

  private val scale = 0.3
  private lazy val pharma = LakeGen.pharma(scale)
  private lazy val ukOpen = LakeGen.ukOpen(scale)
  private lazy val mlOpen = LakeGen.mlOpen(scale)

  /** The exact (normalised, distinct) value set of column `ref`; empty if the lake has no such column. */
  private def valueSet(lake: Lake, ref: ColRef): Set[String] =
    lake.rawColumns.find(c => c.table == ref.table && c.column == ref.column).map(_.normValues.toSet)
      .getOrElse(Set.empty)

  test("generators are deterministic in (scale, seed)") {
    // whole-lake `==`, ground truths included; `same` keeps a failure from printing both lakes
    def same(a: Lake, b: Lake): Boolean = a == b
    assert(same(LakeGen.pharma(scale), pharma))
    assert(same(LakeGen.ukOpen(scale), ukOpen))
    assert(same(LakeGen.mlOpen(scale), mlOpen))
    assert(!same(LakeGen.pharma(scale, seed = 1), pharma))
    assert(!same(LakeGen.ukOpen(scale, seed = 1), ukOpen))
    assert(!same(LakeGen.mlOpen(scale, seed = 1), mlOpen))
  }

  test("every ground truth refers only to documents, tables and columns of its lake") {
    val seeded = for (seed <- 1L to 3L; gen <- Seq(LakeGen.pharma _, LakeGen.ukOpen _, LakeGen.mlOpen _))
      yield (s"seed $seed", gen(scale, seed))
    for ((seed, lake) <- Seq(pharma, ukOpen, mlOpen).map(("default seed", _)) ++ seeded) {
      val cols = lake.rawColumns.map(c => ColRef(c.table, c.column) -> c).toMap
      val collectionOf = lake.tables.map(t => t.name -> t.collection).toMap
      val docIds = lake.docs.map(_.id).toSet
      def inCollection(ref: ColRef, coll: String) = cols.get(ref).exists(_.collection == coll)
      for (b <- lake.docBenches; (doc, refs) <- b.docColumns)
        assert(docIds(doc) && refs.nonEmpty && refs.forall(cols.contains), s"${lake.name} $seed ${b.id} $doc $refs")
      for (b <- lake.joinBenches; (q, answers) <- b.queries; a <- answers)
        assert(inCollection(q, b.workload) && inCollection(a, b.workload) && q.table != a.table,
          s"${lake.name} $seed ${b.id} $q $a")
      for (b <- lake.pkfkBenches) {
        assert(b.gt.nonEmpty, s"${lake.name} $seed ${b.id}")
        for ((pk, fk) <- b.gt)
          assert(Seq(pk, fk).forall(r => inCollection(r, b.database) && Set("id", "numeric")(cols(r).dtype)) &&
            pk.table != fk.table, s"${lake.name} $seed ${b.id} $pk $fk")
      }
      for (b <- lake.unionBenches; (q, answers) <- b.queries; t <- answers + q)
        assert(collectionOf.get(t).contains(b.workload), s"${lake.name} $seed ${b.id} $q $t")
    }
  }

  test("pharma contains the five collections of Table 1") {
    val colls = pharma.tables.map(_.collection).toSet ++ pharma.docs.map(_.collection).toSet
    assert(colls === Set("DrugBank", "ChEMBL", "ChEBI", "PubMed", "DrugBank-Synthetic"))
  }

  test("uk-open contains govt data and synthetic text") {
    assert(ukOpen.tables.forall(_.collection == "Govt. data"))
    assert(ukOpen.docs.forall(_.collection == "Synthetic text"))
  }

  test("ml-open contains SS, MS, LS and review docs") {
    assert(mlOpen.tables.map(_.collection).toSet === Set("SS", "MS", "LS"))
    assert(mlOpen.docs.forall(_.collection == "Reviews"))
  }

  test("drugbank FK values are contained in their PK columns (clean FKs)") {
    val pk = valueSet(pharma, ColRef("drugs", "drug_id"))
    val fk = valueSet(pharma, ColRef("drug_interactions", "drug_id"))
    assert(Similarity.containment(fk, pk) === 1.0)
  }

  test("dirty FKs have reduced but substantial containment") {
    val pk = valueSet(pharma, ColRef("drugs", "drug_id"))
    val fk = valueSet(pharma, ColRef("drug_pathways", "drug_id"))
    val c = Similarity.containment(fk, pk)
    assert(c > 0.5 && c < 0.95)
  }

  test("drugbank PKs carry duplicates (uniqueness slightly below 1)") {
    val drugs = pharma.tables.find(_.name == "drugs").get
    val idCol = drugs.columns.find(_.column == "drug_id").get
    val uniq = idCol.values.distinct.size.toDouble / idCol.values.size
    assert(uniq > 0.9 && uniq < 1.0)
  }

  test("FK cardinalities are skewed relative to PKs (low mQCR regime)") {
    val pk = valueSet(pharma, ColRef("drugs", "drug_id"))
    val tiny = valueSet(pharma, ColRef("drug_conditions", "drug_id"))
    assert(tiny.size.toDouble / pk.size < 0.15)
  }

  test("chembl shared-id columns use the molregno value space under other names") {
    val master = valueSet(pharma, ColRef("molecule_dictionary", "molregno"))
    val recs = valueSet(pharma, ColRef("compound_records", "record_id"))
    assert(Similarity.containment(recs, master) === 1.0)
    assert(Similarity.nameSimilarity("record_id", "molregno") < 0.2)
  }

  test("chebi keys are numeric ranges") {
    val chebi = pharma.tables.filter(_.collection == "ChEBI")
    assert(chebi.nonEmpty)
    val pk = chebi.find(_.name == "compounds").get.columns.find(_.column == "id").get
    assert(pk.dtype === "numeric")
    assert(pk.values.forall(v => v.toDoubleOption.isDefined))
  }

  test("2B ground truth is symmetric and non-empty") {
    val gt = pharma.joinBenches.find(_.id == "2B").get.queries
    assert(gt.nonEmpty)
    for ((q, answers) <- gt; a <- answers) assert(gt(a).contains(q), s"$q <-> $a")
  }

  test("2B ground truth pairs really have exact containment above the threshold") {
    val gt = pharma.joinBenches.find(_.id == "2B").get.queries
    for ((q, answers) <- gt.take(20); a <- answers) {
      val (s1, s2) = (valueSet(pharma, q), valueSet(pharma, a))
      val c = math.max(Similarity.containment(s1, s2), Similarity.containment(s2, s1))
      assert(c >= LakeGen.BruteForceThreshold, s"$q-$a containment $c")
    }
  }

  test("2B ground truth pairs never share a table") {
    val gt = pharma.joinBenches.find(_.id == "2B").get.queries
    for ((q, answers) <- gt; a <- answers) assert(q.table !== a.table)
  }

  test("pubmed docs cite values that exist in the ground-truth columns") {
    val bench = pharma.docBenches.find(_.id == "1B").get
    val docsById = pharma.docs.map(d => d.id -> d).toMap
    var checked = 0
    for ((docId, cols) <- bench.docColumns.take(15); ref <- cols) {
      val vals = valueSet(pharma, ref)
      val text = docsById(docId).text.toLowerCase
      if (vals.exists(text.contains)) checked += 1
    }
    assert(checked > 0)
  }

  test("some pubmed docs are noise (no ground-truth links)") {
    val bench = pharma.docBenches.find(_.id == "1B").get
    assert(bench.queries.size < pharma.docs.size)
    assert(bench.queries.size > pharma.docs.size / 3)
  }

  test("drugbank-synthetic variants form union families of size > 1") {
    val union = pharma.unionBenches.find(_.id == "3B").get
    assert(union.queries.nonEmpty)
    assert(union.queries.values.forall(_.nonEmpty))
  }

  test("synthetic variants share value domains with their base tables") {
    val syn = pharma.tables.filter(_.collection == "DrugBank-Synthetic")
    val drugsVariants = syn.filter(_.name.startsWith("syn_drugs_"))
    assert(drugsVariants.size === 4)
    val base = valueSet(pharma, ColRef("drugs", "drug_id"))
    val anyIdCol = drugsVariants.flatMap(_.columns).find(c => c.values.headOption.exists(_.startsWith("dbdrug")))
    assert(anyIdCol.isDefined)
    assert(Similarity.containment(anyIdCol.get.values.toSet, base) === 1.0)
  }

  test("3B variants have only partial row overlap (selection slices)") {
    val union = pharma.unionBenches.find(_.id == "3B").get
    val (t1, others) = union.queries.head
    val t2 = others.head
    val c1 = pharma.tables.find(_.name == t1).get.columns.head
    val c2find = pharma.tables.find(_.name == t2).get.columns.find(_.dtype == c1.dtype)
    assert(c2find.isDefined)
  }

  test("uk-open union groups are same-prototype variants") {
    val union = ukOpen.unionBenches.find(_.id == "3A").get
    for ((t, others) <- union.queries.take(10); o <- others) {
      assert(t.split("_data_v").head === o.split("_data_v").head)
    }
  }

  test("uk-open 2A ground truth includes semantic-only pairs with zero overlap") {
    val gt = ukOpen.joinBenches.find(_.id == "2A").get.queries
    val overlaps = gt.toSeq.flatMap { case (q, as) =>
      as.map(a => Similarity.containment(valueSet(ukOpen, q), valueSet(ukOpen, a)))
    }
    assert(overlaps.exists(_ == 0.0), "expected semantic-only annotated pairs")
    assert(overlaps.exists(_ > 0.8), "expected high-containment annotated pairs")
  }

  test("ml-open LS ground truth is dominated by skewed pairs") {
    val gt = mlOpen.joinBenches.find(_.id == "2C-LS").get.queries
    val cards = BenchStats.columnCards(mlOpen)
    val ratios = gt.toSeq.flatMap { case (q, as) =>
      as.map(a => math.min(cards(q), cards(a)).toDouble / math.max(cards(q), cards(a)))
    }
    assert(BenchStats.median(ratios) < 0.2)
  }

  test("ml-open SS ground truth is balanced") {
    val gt = mlOpen.joinBenches.find(_.id == "2C-SS").get.queries
    val cards = BenchStats.columnCards(mlOpen)
    val ratios = gt.toSeq.flatMap { case (q, as) =>
      as.map(a => math.min(cards(q), cards(a)).toDouble / math.max(cards(q), cards(a)))
    }
    assert(BenchStats.median(ratios) > 0.5)
  }

  test("all three join sub-benchmarks of 2C are present") {
    assert(mlOpen.joinBenches.map(_.id).toSet === Set("2C-SS", "2C-MS", "2C-LS"))
  }

  test("LS has a high numeric-attribute fraction") {
    val ls = mlOpen.tables.filter(_.collection == "LS").flatMap(_.columns)
    assert(ls.count(_.dtype == "numeric").toDouble / ls.size > 0.5)
  }

  test("column refs are unique even when two 3B renames draw the same name") {
    // with seed 82, two renamed columns of syn_enzyme_targets_v3 both draw fld88x63
    val refs = LakeGen.pharma(0.2, seed = 82).rawColumns.map(c => s"${c.table}.${c.column}")
    assert(refs.diff(refs.distinct).isEmpty)
  }

  test("valueSet lowercases and deduplicates") {
    val lake = Lake("t", Vector(LakeTable("c", "tab",
      Vector(repro.profile.RawColumn("c", "tab", "col", "text", Seq("A", "a", " b "))))), Vector.empty)
    assert(valueSet(lake, ColRef("tab", "col")) === Set("a", "b"))
  }
}
