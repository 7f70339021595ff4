package repro.lake

import scala.collection.mutable
import scala.util.Random

import repro.profile.{RawColumn, RawDoc}

/** Synthetic generators for the three evaluation data lakes (Table 1).
  *
  * The paper evaluates on real lakes (Pharma, UK-Open, ML-Open) that are not
  * redistributable; these generators build structurally equivalent lakes —
  * same collection layout, scaled-down table/column/document counts, and,
  * crucially, the *data characteristics the evaluation hinges on*:
  *
  *  - nested foreign-key sampling with controlled cardinality ratios, so the
  *    query-cardinality-ratio (mQCR) skew of each benchmark is reproduced
  *    (skewed benchmarks are where containment beats Jaccard, Table 3);
  *  - moderate-overlap *distractor* columns (partial value mixes) that sit
  *    above skewed true joins in a Jaccard ranking but below them in a
  *    containment ranking — the mechanism behind Table 3's gaps — plus
  *    borderline columns just above/below the ground-truth threshold where
  *    sketch estimation noise costs every system;
  *  - duplicate-bearing primary keys (DrugBank), shared id spaces with
  *    dissimilar names (ChEMBL), and numeric-only keys (ChEBI) — the three
  *    PK-FK regimes of Table 4;
  *  - union families by projection/selection with partial renaming (3B) or
  *    shared schemas over sliced value ranges (3A), driving the per-measure
  *    relative recall of Table 5;
  *  - documents citing column values, giving Doc→Table ground truth (1A-1C).
  *
  * Everything is deterministic in (scale, seed). Ground truths follow
  * Table 2's "Ground Truth Generation" column: brute-force exact containment
  * for 2B/2C, the schema's FK declarations for 2D, generator annotations
  * elsewhere.
  */
object LakeGen {

  /** Exact-containment threshold used by the brute-force GT (2B, 2C). */
  val BruteForceThreshold = 0.7

  // ------------------------------------------------------------------
  // small helpers
  // ------------------------------------------------------------------

  /** A value domain: `n` words sharing the root `root` (subword embeddings
    * place them nearby, which is how semantic similarity arises).
    */
  def dom(root: String, n: Int): Vector[String] = Vector.tabulate(n)(i => s"$root$i")

  private def n(base: Int, scale: Double): Int = math.max(2, math.round(base * scale).toInt)

  private def sampleDistinct[A](rnd: Random, pool: Seq[A], k: Int): Vector[A] =
    rnd.shuffle(pool.toVector).take(math.max(1, math.min(k, pool.size)))

  /** Rows with duplicates: keeps all `values` once plus `dupFrac` repeats. */
  private def withDups(rnd: Random, values: Vector[String], dupFrac: Double): Vector[String] =
    if (values.isEmpty) values
    else values ++ Vector.fill(math.round(values.size * dupFrac).toInt)(values(rnd.nextInt(values.size)))

  /** Rows sampled with repetition from a value pool (low-uniqueness FK). */
  private def repeated(rnd: Random, pool: Vector[String], rows: Int): Vector[String] =
    if (pool.isEmpty) pool else Vector.fill(rows)(pool(rnd.nextInt(pool.size)))

  private def cat(name: String, cats: Vector[String], rows: Int, rnd: Random): Col =
    Col(name, "categorical", repeated(rnd, cats, rows))

  private def numeric(name: String, lo: Int, hi: Int, rows: Int, rnd: Random): Col = {
    val vals = Vector.fill(rows)((lo + rnd.nextInt(math.max(1, hi - lo + 1))).toString)
    // ensure the range endpoints are present so min/max profiles are exact
    Col(name, "numeric", vals.updated(0, lo.toString).updated(math.min(1, vals.size - 1), hi.toString))
  }

  /** Mixes `dirtFrac` out-of-domain values into a column (lowers containment). */
  private def dirty(rnd: Random, values: Vector[String], dirtFrac: Double, root: String): Vector[String] = {
    val nDirt = math.round(values.size * dirtFrac).toInt
    values.dropRight(nDirt) ++ Vector.tabulate(nDirt)(i => s"$root$i")
  }

  /** A "mixed" column: `frac` of `pool` plus fresh values up to `pool`-like
    * size — the moderate-overlap distractor of Table 3's design.
    */
  private def mixed(rnd: Random, pool: Vector[String], frac: Double, freshRoot: String): Vector[String] = {
    val keep = sampleDistinct(rnd, pool, math.max(1, math.round(pool.size * frac).toInt))
    keep ++ dom(freshRoot, math.max(1, pool.size - keep.size))
  }

  // ------------------------------------------------------------------
  // table declarations
  // ------------------------------------------------------------------

  /** One column of a table declaration. A foreign key names the primary-key
    * column it references (`references`); the 2D ground truth is read off
    * those declarations.
    */
  private final case class Col(name: String, dtype: String, values: Seq[String], pk: Option[ColRef] = None) {
    def references(table: String, column: String): Col = copy(pk = Some(ColRef(table, column)))
  }

  /** The tables of one lake in declaration order, and the PK-FK links their
    * columns declare. `raw` is the only place a column spec becomes a
    * `RawColumn`; it shares the spec's values rather than copying them.
    */
  private final class Tables {
    val all = mutable.ArrayBuffer.empty[LakeTable]
    private val links = mutable.ArrayBuffer.empty[(String, (ColRef, ColRef))]

    private def raw(collection: String, table: String)(c: Col): RawColumn = {
      for (pk <- c.pk) links += ((collection, (pk, ColRef(table, c.name))))
      RawColumn(collection, table, c.name, c.dtype, c.values)
    }

    def add(collection: String, name: String, cols: Iterable[Col]): Unit =
      all += LakeTable(collection, name, cols.map(raw(collection, name)).toVector)

    /** Appends `c` to the `i`-th table; returns the new column's ref. */
    def addColumn(i: Int, c: Col): ColRef = {
      val t = all(i)
      all(i) = t.copy(columns = t.columns :+ raw(t.collection, t.name)(c))
      ColRef(t.name, c.name)
    }

    def in(collection: String): Vector[LakeTable] = all.filter(_.collection == collection).toVector

    /** 2D (Table 2: "Schema"): every (pk, fk) link declared in `collection`. */
    def pkfkBench(id: String, collection: String): PkfkBench =
      PkfkBench(id, collection, links.collect { case (`collection`, link) => link }.toSet)

    /** 2B/2C (Table 2: "Brute force"): exact containment over `collection`'s columns. */
    def bruteForceBench(id: String, collection: String): JoinBench =
      JoinBench(id, collection, bruteForceJoinGt(in(collection).flatMap(_.columns)))
  }

  // ------------------------------------------------------------------
  // brute-force ground truth (Table 2: "Brute force")
  // ------------------------------------------------------------------

  /** All-pairs exact max-direction set containment over joinable columns of
    * distinct tables — the expensive exact algorithm the paper runs to build
    * the 2B/2C ground truths.
    */
  def bruteForceJoinGt(cols: Seq[RawColumn]): Map[ColRef, Set[ColRef]] = {
    val joinable = cols
      .filter(c => c.dtype != "date")
      .map(c => (ColRef(c.table, c.column), c.normValues.toSet))
      .filter(_._2.nonEmpty)
      .toIndexedSeq
    val pairs = mutable.ArrayBuffer.empty[Seq[ColRef]]
    for (i <- joinable.indices; j <- i + 1 until joinable.size) {
      val (r1, s1) = joinable(i); val (r2, s2) = joinable(j)
      if (r1.table != r2.table) {
        val (small, large) = if (s1.size <= s2.size) (s1, s2) else (s2, s1)
        val inter = small.count(large.contains)
        if (inter > 0) {
          val c = math.max(inter.toDouble / s1.size, inter.toDouble / s2.size)
          if (c >= BruteForceThreshold) pairs += Seq(r1, r2)
        }
      }
    }
    symmetric(pairs)
  }

  /** Each member of each group mapped to the other members of every group it
    * is in: the symmetric ground truths of 2A–2C (pairs) and 3A/3B (families).
    */
  private def symmetric[A](groups: Iterable[Iterable[A]]): Map[A, Set[A]] =
    groups.foldLeft(Map.empty[A, Set[A]]) { (m, g) =>
      val members = g.toSet
      g.foldLeft(m)((m, a) => m.updated(a, m.getOrElse(a, Set.empty[A]) ++ (members - a)))
    }

  // ------------------------------------------------------------------
  // Pharma lake: DrugBank + ChEMBL + ChEBI + PubMed + DrugBank-Synthetic
  // ------------------------------------------------------------------

  def pharma(scale: Double = 1.0, seed: Long = 101): Lake = {
    val rnd = new Random(seed)
    val tables = new Tables

    // ---------------- DrugBank ----------------
    val C = "DrugBank"
    val nDrug = n(300, scale); val nEnz = n(160, scale); val nTarg = n(120, scale)
    val nMfg = n(50, scale); val nTrial = n(120, scale)
    val drugId = dom("dbdrug", nDrug); val drugName = dom("drugmed", nDrug)
    val enzId = dom("dbenzyme", nEnz); val enzName = dom("enzprot", nEnz)
    val targId = dom("dbtargid", nTarg); val targName = dom("genesym", nTarg)
    val mfgId = dom("dbmfg", nMfg); val mfgName = dom("pharmaco", nMfg)
    val trialId = dom("dbtrial", nTrial)
    val pathName = dom("pathwayterm", n(60, scale)); val condName = dom("medcondition", n(80, scale))

    // FK pools over the drug id domain. fkA ⊃ fkB ⊃ {fkC ⊃ fkE ⊃ dcPool,
    // fkD ⊃ dosPool, saltsPool, dpPool} — nested chains give containment-1
    // pairs whose Jaccard (= cardinality ratio) varies from .6 down to .05,
    // while independent samples (trialsPool, dmPool) stay below Aurum's
    // Jaccard radar.
    val fkA = sampleDistinct(rnd, drugId, (nDrug * 0.40).toInt)
    val fkB = sampleDistinct(rnd, fkA, (nDrug * 0.25).toInt)
    val fkC = sampleDistinct(rnd, fkB, (nDrug * 0.12).toInt)
    val fkD = sampleDistinct(rnd, fkB, (nDrug * 0.06).toInt)
    val fkE = sampleDistinct(rnd, fkC, (nDrug * 0.05).toInt)
    val dcPool = sampleDistinct(rnd, fkE, (nDrug * 0.02).toInt)
    val dosPool = sampleDistinct(rnd, fkD, (nDrug * 0.033).toInt)
    val pricesPool = sampleDistinct(rnd, fkC, (nDrug * 0.03).toInt)
    val dpPool = dirty(rnd, sampleDistinct(rnd, fkB, (nDrug * 0.10).toInt), 0.35, "externaldrugref")
    val saltsPool = sampleDistinct(rnd, fkB, (nDrug * 0.05).toInt)
    val dmPool = sampleDistinct(rnd, fkA, (nDrug * 0.15).toInt)
    val trialsPool = sampleDistinct(rnd, drugId, (nDrug * 0.38).toInt)
    val fkEnzMed = sampleDistinct(rnd, enzId, (nEnz * 0.40).toInt)
    val epPool = sampleDistinct(rnd, fkEnzMed, (nEnz * 0.06).toInt)
    val fkTargBig = sampleDistinct(rnd, targId, (nTarg * 0.50).toInt)
    val fkTargSmall = sampleDistinct(rnd, fkTargBig, (nTarg * 0.30).toInt)
    val fkMfg = sampleDistinct(rnd, mfgId, (nMfg * 0.50).toInt)
    val fkTrial = sampleDistinct(rnd, trialId, (nTrial * 0.60).toInt)

    // DrugBank's FK declarations stand for Table 2's "manual" 2D ground truth.
    def t(name: String, cols: Col*): Unit = tables.add(C, name, cols)
    def drugFk(name: String, values: Seq[String]): Col = Col(name, "id", values).references("drugs", "drug_id")

    val drugTypes = Vector("smallmolecule", "biotech", "vaccine", "antibody")
    t("drugs",
      Col("drug_id", "id", withDups(rnd, drugId, 0.05)),
      Col("drug_name", "text", withDups(rnd, drugName, 0.05)),
      cat("drug_type", drugTypes, nDrug, rnd),
      Col("description", "text",
        drugName.take(nDrug / 2).map(d => s"clinical monograph describing $d pharmacology mechanism dosage interactions and adverse events in extended prose")),
    )
    t("drug_status",
      drugFk("drug_id", withDups(rnd, fkA, 0.08)),
      cat("status", Vector("approved", "investigational", "withdrawn"), fkA.size, rnd),
    )
    t("enzymes",
      Col("enzyme_id", "id", withDups(rnd, enzId, 0.08)),
      Col("enzyme_name", "text", enzName),
      Col("gene_name", "text", sampleDistinct(rnd, targName, nTarg / 2)),
    )
    t("targets",
      Col("target_id", "id", targId),
      Col("target_name", "text", targName),
      cat("organism", Vector("human", "mouse", "rat", "yeast"), nTarg, rnd),
    )
    t("manufacturers",
      Col("manufacturer_id", "id", mfgId),
      Col("manufacturer_name", "text", mfgName),
    )
    t("trials",
      Col("trial_id", "id", trialId),
      drugFk("drug_id", repeated(rnd, trialsPool, (trialsPool.size * 1.5).toInt)),
      cat("phase", Vector("phase1", "phase2", "phase3", "phase4"), nTrial, rnd),
    )
    t("trial_outcomes",
      Col("trial_id", "id", withDups(rnd, fkTrial, 0.02)).references("trials", "trial_id"),
      cat("outcome", Vector("completed", "terminated", "withdrawn"), fkTrial.size, rnd),
    )
    t("drug_interactions",
      drugFk("drug_id", repeated(rnd, fkC, (fkC.size * 1.8).toInt)),
      drugFk("interacting_drug_id", withDups(rnd, fkE, 0.10)),
      cat("severity", Vector("major", "moderate", "minor"), fkC.size, rnd),
    )
    t("enzyme_targets",
      Col("enzyme_id", "id", withDups(rnd, fkEnzMed, 0.09)).references("enzymes", "enzyme_id"),
      drugFk("drug_id", withDups(rnd, fkB, 0.10)),
      cat("action", Vector("inhibitor", "inducer", "substrate"), fkEnzMed.size, rnd),
    )
    t("drug_targets",
      drugFk("drug_id", withDups(rnd, fkD, 0.12)),
      Col("target_id", "id", repeated(rnd, fkTargBig, (fkTargBig.size * 1.4).toInt)).references("targets", "target_id"),
    )
    t("target_pathways",
      Col("target_id", "id", fkTargSmall).references("targets", "target_id"),
      Col("pathway_name", "text", repeated(rnd, pathName, pathName.size)),
    )
    t("drug_pathways",
      drugFk("drug_id", repeated(rnd, dpPool, (dpPool.size * 1.3).toInt)),
      Col("pathway_name", "text", repeated(rnd, pathName, pathName.size)),
    )
    t("drug_conditions",
      drugFk("drug_id", withDups(rnd, dcPool, 0.15)),
      Col("condition_name", "text", repeated(rnd, condName, condName.size)),
    )
    t("drug_salts",
      drugFk("drug_id", withDups(rnd, saltsPool, 0.09)),
      cat("salt_form", Vector("hydrochloride", "sodium", "sulfate"), saltsPool.size, rnd),
    )
    t("dosages",
      drugFk("drug_id", repeated(rnd, dosPool, (dosPool.size * 1.7).toInt)),
      numeric("dose_mg", 1, 500, dosPool.size * 2, rnd),
      cat("route", Vector("oral", "intravenous", "topical"), dosPool.size, rnd),
    )
    t("prices",
      drugFk("drug_id", repeated(rnd, pricesPool, (pricesPool.size * 1.5).toInt)),
      numeric("unit_price", 1, 900, pricesPool.size, rnd),
    )
    t("drug_manufacturers",
      drugFk("drug_id", repeated(rnd, dmPool, (dmPool.size * 1.4).toInt)),
      Col("manufacturer_id", "id", repeated(rnd, fkMfg, (fkMfg.size * 1.5).toInt))
        .references("manufacturers", "manufacturer_id"),
    )
    t("enzyme_pathways",
      Col("enzyme_id", "id", withDups(rnd, epPool, 0.10)).references("enzymes", "enzyme_id"),
      Col("pathway_name", "text", repeated(rnd, pathName, pathName.size / 2)),
    )
    // 2B distractor tables: each ref column shares ~half its values with one
    // FK column — above the skewed true joins in a Jaccard ranking, below
    // everything in a containment ranking, and outside the brute-force GT.
    t("event_registry",
      Col("event_ref", "id", withDups(rnd, mixed(rnd, dcPool, 0.35, "evref"), 0.2)),
      Col("batch_code", "id", withDups(rnd, mixed(rnd, pricesPool, 0.35, "evbatch"), 0.2)),
      Col("case_token", "id", withDups(rnd, mixed(rnd, fkE, 0.35, "evcase"), 0.2)),
    )
    t("import_log",
      Col("import_ref", "id", withDups(rnd, mixed(rnd, dosPool, 0.35, "imref"), 0.2)),
      Col("lot_code", "id", withDups(rnd, mixed(rnd, fkD, 0.35, "imlot"), 0.2)),
      Col("shipment_token", "id", withDups(rnd, mixed(rnd, fkC, 0.35, "imship"), 0.2)),
      Col("origin_token", "id", withDups(rnd, mixed(rnd, saltsPool, 0.35, "imorig"), 0.2)),
    )

    // ---------------- ChEMBL ----------------
    val H = "ChEMBL"
    val nMol = n(400, scale); val nAssay = n(250, scale); val nTid = n(150, scale); val nCdoc = n(120, scale)
    val molregno = dom("chmol", nMol); val assayId = dom("chassay", nAssay)
    val tid = dom("chtid", nTid); val cdocId = dom("chdoc", nCdoc)
    val molName = dom("chemname", nMol)

    val molProps = sampleDistinct(rnd, molregno, (nMol * 0.50).toInt)
    val molStruct = sampleDistinct(rnd, molProps, (nMol * 0.45).toInt)
    val molBio = sampleDistinct(rnd, molStruct, (nMol * 0.30).toInt)
    val molAct = dirty(rnd, sampleDistinct(rnd, molregno, (nMol * 0.20).toInt), 0.40, "exact")
    val molMech = dirty(rnd, sampleDistinct(rnd, molBio, (nMol * 0.10).toInt), 0.42, "exmech")
    val molForm = dirty(rnd, sampleDistinct(rnd, molBio, (nMol * 0.07).toInt), 0.42, "exform")
    // molregno-named nested chain (near-unique pseudo-keys): CMDL's schema
    // filter cannot save it from these — the source of its Table 4 FPs.
    val chain2 = sampleDistinct(rnd, molProps, (nMol * 0.12).toInt)
    val chain3 = sampleDistinct(rnd, chain2, (nMol * 0.05).toInt)
    val chain4 = sampleDistinct(rnd, chain3, (nMol * 0.02).toInt)
    // shared id space under dissimilar names: Aurum FPs that CMDL filters out.
    val recIds = sampleDistinct(rnd, molregno, (nMol * 0.60).toInt)
    val molRefs = sampleDistinct(rnd, recIds, (nMol * 0.30).toInt)
    val compKeys = sampleDistinct(rnd, molRefs, (nMol * 0.24).toInt)
    val batchNos = sampleDistinct(rnd, recIds, (nMol * 0.27).toInt)
    val entryKeys = sampleDistinct(rnd, batchNos, (nMol * 0.135).toInt)
    val rowGuids = sampleDistinct(rnd, recIds, (nMol * 0.18).toInt)
    val fkAssayAct = sampleDistinct(rnd, assayId, (nAssay * 0.30).toInt)
    val fkAssayParam = sampleDistinct(rnd, fkAssayAct, (nAssay * 0.15).toInt)
    val fkTidComp = sampleDistinct(rnd, tid, (nTid * 0.40).toInt)
    val fkTidMech = dirty(rnd, sampleDistinct(rnd, fkTidComp, (nTid * 0.12).toInt), 0.42, "extid")
    val fkCdocAct = sampleDistinct(rnd, cdocId, (nCdoc * 0.26).toInt)
    val fkCdocRec = dirty(rnd, sampleDistinct(rnd, fkCdocAct, (nCdoc * 0.20).toInt), 0.42, "exdoc")

    // The pseudo-key chain (compound_flags, compound_audit, legacy_molecules)
    // and the shared-id-space columns declare no FK on purpose: Table 4's
    // false positives come from them.
    def h(name: String, cols: Col*): Unit = tables.add(H, name, cols)
    def molFk(values: Seq[String]): Col = Col("molregno", "id", values).references("molecule_dictionary", "molregno")

    h("molecule_dictionary",
      Col("molregno", "id", molregno),
      Col("pref_name", "text", molName),
      cat("molecule_type", Vector("small", "protein", "oligo"), nMol, rnd),
    )
    h("assays",
      Col("assay_id", "id", assayId),
      cat("assay_type", Vector("binding", "functional", "adme"), nAssay, rnd),
      numeric("confidence_score", 0, 9, nAssay, rnd),
    )
    h("target_dictionary",
      Col("tid", "id", tid),
      cat("target_type", Vector("protein", "organism", "tissue"), nTid, rnd),
    )
    h("chembl_docs",
      Col("doc_id", "id", cdocId),
      numeric("year", 1990, 2022, nCdoc, rnd),
    )
    h("compound_properties",
      molFk(molProps),
      numeric("mw_freebase", 100, 900, molProps.size, rnd),
    )
    h("compound_structures",
      molFk(molStruct),
      Col("canonical_smiles", "text", molStruct.map(m => s"smiles$m")),
    )
    h("biotherapeutics",
      molFk(molBio),
      Col("helm_notation", "text", molBio.map(m => s"helm$m")),
    )
    h("activities",
      molFk(repeated(rnd, molAct, (molAct.size * 2.0).toInt)),
      Col("assay_id", "id", repeated(rnd, fkAssayAct, (fkAssayAct.size * 1.8).toInt)).references("assays", "assay_id"),
      Col("doc_id", "id", repeated(rnd, fkCdocAct, (fkCdocAct.size * 1.6).toInt)).references("chembl_docs", "doc_id"),
      numeric("standard_value", 1, 10000, molAct.size * 2, rnd),
    )
    h("drug_mechanism",
      molFk(molMech),
      Col("tid", "id", fkTidMech).references("target_dictionary", "tid"),
      Col("mechanism_of_action", "text", molMech.map(m => s"moa$m")),
    )
    h("formulations",
      molFk(molForm),
      cat("form", Vector("tablet", "capsule", "solution"), molForm.size, rnd),
    )
    h("compound_flags",
      Col("molregno", "id", chain2),
      cat("flag", Vector("dosed", "shelved", "novel"), chain2.size, rnd),
    )
    h("compound_audit",
      Col("molregno", "id", chain3),
      cat("audit_action", Vector("insert", "merge"), chain3.size, rnd),
    )
    h("legacy_molecules",
      Col("molregno", "id", chain4),
      cat("legacy_source", Vector("v1", "v2"), chain4.size, rnd),
    )
    h("assay_parameters",
      Col("assay_id", "id", fkAssayParam).references("assays", "assay_id"),
      cat("parameter_type", Vector("dose", "time", "route"), fkAssayParam.size, rnd),
    )
    h("target_components",
      Col("tid", "id", fkTidComp).references("target_dictionary", "tid"),
      cat("component_type", Vector("protein", "dna"), fkTidComp.size, rnd),
    )
    h("compound_records",
      Col("record_id", "id", recIds),
      Col("doc_id", "id", repeated(rnd, fkCdocRec, (fkCdocRec.size * 1.5).toInt)).references("chembl_docs", "doc_id"),
    )
    h("curation_log",
      Col("mol_ref", "id", molRefs),
      cat("status", Vector("approved", "pending", "flagged"), molRefs.size, rnd),
    )
    h("audit_trail",
      Col("compound_key", "id", compKeys),
      cat("operation", Vector("insert", "update"), compKeys.size, rnd),
    )
    h("batch_registry",
      Col("batch_no", "id", batchNos),
      cat("site", Vector("siteA", "siteB", "siteC"), batchNos.size, rnd),
    )
    h("entry_index",
      Col("entry_key", "id", entryKeys),
      cat("entry_kind", Vector("primary", "secondary"), entryKeys.size, rnd),
    )
    h("row_registry",
      Col("row_guid", "id", rowGuids),
      cat("origin", Vector("etl", "manual"), rowGuids.size, rnd),
    )

    // ---------------- ChEBI (numeric keys) ----------------
    val B = "ChEBI"
    val nComp = n(240, scale)
    def b(name: String, cols: Col*): Unit = tables.add(B, name, cols)
    def compoundFk(name: String, values: Seq[String]): Col =
      Col(name, "numeric", values).references("compounds", "id")
    def rangeVals(lo: Int, hi: Int): Vector[String] = (lo to hi).map(_.toString).toVector

    b("compounds",
      Col("id", "numeric", rangeVals(1, nComp)),
      Col("chebi_name", "text", dom("chebiterm", nComp)),
    )
    b("names",
      compoundFk("compound_id", withDups(rnd, rangeVals(1, (nComp * 0.62).toInt), 0.3)),
      cat("name_type", Vector("iupac", "brand", "inn"), nComp / 2, rnd),
    )
    b("structures",
      compoundFk("compound_id", withDups(rnd, rangeVals(1, (nComp * 0.41).toInt), 0.2)),
      cat("structure_format", Vector("mol", "sdf"), nComp / 3, rnd),
    )
    b("relations",
      compoundFk("init_id", rangeVals((nComp * 0.17).toInt, (nComp * 0.92).toInt)),
      compoundFk("final_id", withDups(rnd, rangeVals((nComp * 0.56).toInt, nComp), 0.4)),
      cat("rel_type", Vector("isa", "partof", "role"), nComp / 2, rnd),
    )
    b("references",
      compoundFk("compound_id", withDups(rnd, rangeVals(1, nComp), 0.5)),
      cat("source", Vector("pubmed", "patent"), nComp / 2, rnd),
    )
    b("accessions",
      compoundFk("compound_id", withDups(rnd, rangeVals((nComp * 0.25).toInt, (nComp * 0.55).toInt), 0.3)),
      cat("db_source", Vector("kegg", "hmdb", "cas"), nComp / 3, rnd),
    )

    // ---------------- PubMed documents (1B: GT "from the database") ----------------
    val P = "PubMed"
    val nDocs = n(250, scale)
    val fillers = Vector("inhibition", "binding", "affinity", "metabolism", "kinetics",
      "toxicity", "efficacy", "receptor", "protein", "assay", "dose", "cohort", "vivo", "vitro")
    val citable: Vector[(ColRef, Vector[String])] = Vector(
      (ColRef("drugs", "drug_name"), drugName),
      (ColRef("enzymes", "enzyme_name"), enzName),
      (ColRef("targets", "target_name"), targName),
      (ColRef("target_pathways", "pathway_name"), pathName),
      (ColRef("drug_conditions", "condition_name"), condName),
      (ColRef("molecule_dictionary", "pref_name"), molName),
    )
    val pubmedDocs = mutable.ArrayBuffer.empty[RawDoc]
    val docColGt1B = mutable.Map.empty[String, Set[ColRef]]
    for (i <- 0 until nDocs) {
      val id = s"pmid$i"
      if (rnd.nextDouble() < 0.62) {
        val nCols = 2 + rnd.nextInt(3)
        val picked = sampleDistinct(rnd, citable, nCols)
        val mentions = picked.flatMap { case (_, pool) => sampleDistinct(rnd, pool, 2 + rnd.nextInt(2)) }
        val noise = Vector.fill(5)(fillers(rnd.nextInt(fillers.size)))
        pubmedDocs += RawDoc(P, id, s"Study of ${mentions.head}",
          (mentions ++ noise).mkString("Observed effects of ", " and ", " in controlled trials."))
        docColGt1B(id) = picked.map(_._1).toSet
      } else {
        val noise = Vector.fill(8)(fillers(rnd.nextInt(fillers.size))) ++
          Vector.tabulate(4)(j => s"miscterm${rnd.nextInt(500)}_$j".replace("_", ""))
        pubmedDocs += RawDoc(P, id, s"Review $i", noise.mkString("General review of ", " ", " methods."))
      }
    }

    // ---------------- DrugBank-Synthetic (3B: projections/selections) ----------------
    val S = "DrugBank-Synthetic"
    val synBases = tables.in(C).filter(t => Set("drugs", "enzymes", "targets", "trials", "drug_interactions",
      "enzyme_targets", "manufacturers", "dosages").contains(t.name))
    val synRnd = new Random(seed + 7)
    val unionFamilies = mutable.Map.empty[String, mutable.ArrayBuffer[String]]
    val slices = Vector((0.0, 0.6), (0.3, 0.9), (0.15, 0.75), (0.4, 1.0))
    for (base <- synBases; v <- 0 until 4) {
      val tname = s"syn_${base.name}_v$v"
      val (lo, hi) = slices(v)
      val names = mutable.Set.empty[String]
      val cols = base.columns.filterNot(_.column == "description").take(4).map { c =>
        val distinct = c.values.distinct
        val slice = distinct.slice((distinct.size * lo).toInt, (distinct.size * hi).toInt)
        val drawn = if (synRnd.nextDouble() < 0.5) s"fld${synRnd.nextInt(90)}x${synRnd.nextInt(90)}" else c.column
        // two renames can draw the same name; a column's ref must stay unique
        val renamed = if (names.add(drawn)) drawn else s"${drawn}_${names.size}"
        names += renamed
        Col(renamed, c.dtype, slice)
      }
      tables.add(S, tname, cols)
      unionFamilies.getOrElseUpdate(base.name, mutable.ArrayBuffer.empty) += tname
    }

    Lake(
      name = "Pharma",
      tables = tables.all.toVector,
      docs = pubmedDocs.toVector,
      docBenches = Seq(DocBench("1B", s"$P + $C", docColGt1B.toMap)),
      joinBenches = Seq(tables.bruteForceBench("2B", C)),
      pkfkBenches = Seq(
        tables.pkfkBench("2D-DrugBank", C),
        tables.pkfkBench("2D-ChEMBL", H),
        tables.pkfkBench("2D-ChEBI", B),
      ),
      unionBenches = Seq(UnionBench("3B", S, symmetric(unionFamilies.values))),
    )
  }

  // ------------------------------------------------------------------
  // UK-Open lake: Govt. data + synthetic text
  // ------------------------------------------------------------------

  def ukOpen(scale: Double = 1.0, seed: Long = 202): Lake = {
    val rnd = new Random(seed)
    val G = "Govt. data"
    val themes = Vector("transport", "school", "health", "housing", "crime", "energy",
      "census", "tax", "roads", "parks", "water", "jobs", "trade", "farm", "court",
      "fire", "police", "library", "museum", "election", "budget", "permit",
      "license", "waste", "air", "rail")
    val nProto = math.min(themes.size, n(24, scale))
    val tables = new Tables
    val unionGroups = mutable.ArrayBuffer.empty[Vector[String]]

    // Global join domains for the 2A annotated ground truth.
    val joinDomains = Vector(
      ("regioncode", dom("regioncode", 300)),
      ("lacode", dom("lacode", 240)),
      ("postdistrict", dom("postdist", 260)),
      ("wardcode", dom("wardcode", 220)),
    )

    // Plan 2A pairs: H = high containment (found by containment methods),
    // M = moderate jaccard (found by all), S = semantic-only (disjoint slices
    // of the same domain — manual annotation with no syntactic overlap).
    val pairPlans: Vector[String] =
      Vector.fill(n(12, scale))("H") ++ Vector.fill(n(12, scale))("M") ++ Vector.fill(n(20, scale))("S")

    val protoCols = 7
    for (p <- 0 until nProto) {
      val theme = themes(p)
      val nVariants = 4 + rnd.nextInt(3)
      val domains = Vector.tabulate(protoCols)(j => dom(s"gov$theme" + s"f$j", 120 + rnd.nextInt(130)))
      val variantNames = Vector.tabulate(nVariants)(v => s"${theme}_data_v$v")
      unionGroups += variantNames
      for (v <- 0 until nVariants) {
        val tname = variantNames(v)
        val cols = mutable.ArrayBuffer.empty[Col]
        for (j <- 0 until protoCols) {
          val name0 = s"${theme}_attr$j"
          val name = if (j == protoCols - 1 && rnd.nextDouble() < 0.3) s"${theme}_alt$j" else name0
          if (j >= protoCols - 1) { // ~18% numeric columns
            cols += numeric(name, 100 * p, 100 * p + 400 + rnd.nextInt(200),
              120 + rnd.nextInt(80), rnd)
          } else {
            // Variants select *slices* of the domain (offset per variant):
            // adjacent variants overlap, distant ones barely do — this is
            // what pulls containment's union RR below name's on 3A.
            val width = 0.38 + rnd.nextDouble() * 0.08
            val start = if (nVariants <= 1) 0.0 else (v.toDouble / (nVariants - 1)) * (1.0 - width)
            val d = domains(j)
            val slice = d.slice((d.size * start).toInt, (d.size * (start + width)).toInt)
            cols += Col(name, if (j == 0) "id" else "text", slice)
          }
        }
        tables.add(G, tname, cols)
      }
    }

    // Inject the 2A annotated join columns into randomly chosen tables.
    val allTables = tables.all.indices.toVector
    val join2A = pairPlans.zipWithIndex.map { case (plan, planIdx) =>
      val ti = allTables(rnd.nextInt(allTables.size))
      var tj = allTables(rnd.nextInt(allTables.size))
      while (tj == ti) tj = allTables(rnd.nextInt(allTables.size))
      val (dname, dvals) = joinDomains(planIdx % joinDomains.size)
      val (vals1, vals2) = plan match {
        case "H" =>
          val big = sampleDistinct(rnd, dvals.take(200), 150)
          val small = sampleDistinct(rnd, big, 35)
          (small, big)
        case "M" =>
          val slice = dvals.take(200)
          (sampleDistinct(rnd, slice, 120), sampleDistinct(rnd, slice, 120))
        case _ => // "S": disjoint halves — semantic/name relation only
          (sampleDistinct(rnd, dvals.take(dvals.size / 2), 90),
            sampleDistinct(rnd, dvals.drop(dvals.size / 2), 90))
      }
      Seq(tables.addColumn(ti, Col(s"${dname}_ref$planIdx", "id", vals1)),
        tables.addColumn(tj, Col(s"${dname}_key$planIdx", "id", vals2)))
    }

    // ---------------- synthetic text (1A) ----------------
    val T = "Synthetic text"
    val nDocs = n(380, scale)
    val docRnd = new Random(seed + 13)
    val docs = mutable.ArrayBuffer.empty[RawDoc]
    val docColGt = mutable.Map.empty[String, Set[ColRef]]
    val textCols: Vector[RawColumn] =
      tables.all.flatMap(_.columns).filter(c => (c.dtype == "text" || c.dtype == "id") && c.values.size >= 20).toVector
    val govWords = Vector("report", "statistic", "council", "authority", "region",
      "quarter", "survey", "record", "summary", "registry")
    for (i <- 0 until nDocs) {
      val id = s"ukdoc$i"
      if (docRnd.nextDouble() < 0.7) {
        val nCols = 1 + docRnd.nextInt(3)
        val picked = Vector.fill(nCols)(textCols(docRnd.nextInt(textCols.size))).distinctBy(c => (c.table, c.column))
        val mentions = picked.flatMap(c => sampleDistinct(docRnd, c.values, 3 + docRnd.nextInt(3)))
        val noise = Vector.fill(4)(govWords(docRnd.nextInt(govWords.size)))
        docs += RawDoc(T, id, s"Open data notice ${mentions.head}",
          (mentions ++ noise).mkString("Published figures covering ", " and ", " for the reporting year."))
        docColGt(id) = picked.map(c => ColRef(c.table, c.column)).toSet
      } else {
        val noise = Vector.fill(9)(govWords(docRnd.nextInt(govWords.size))) :+ s"bulletin${docRnd.nextInt(900)}"
        docs += RawDoc(T, id, s"Bulletin $i", noise.mkString("Administrative note on ", " ", "."))
      }
    }

    Lake(
      name = "UK-Open",
      tables = tables.all.toVector,
      docs = docs.toVector,
      docBenches = Seq(DocBench("1A", s"$T + $G", docColGt.toMap)),
      joinBenches = Seq(JoinBench("2A", G, symmetric(join2A))),
      unionBenches = Seq(UnionBench("3A", G, symmetric(unionGroups))),
    )
  }

  // ------------------------------------------------------------------
  // ML-Open lake: SS + MS + LS + review documents
  // ------------------------------------------------------------------

  def mlOpen(scale: Double = 1.0, seed: Long = 303): Lake = {
    val rnd = new Random(seed)
    val tables = new Tables

    /** Builds one sub-collection of joinable tables.
      *
      * Balanced groups carry borderline pairs: a true partner just above the
      * GT containment threshold and noise partners just below it — the
      * narrow-margin regime where sketch noise costs every system (the SS
      * story). Skewed groups nest a tiny column in a huge one and, in
      * `distractFrac` of them, add moderate-Jaccard distractors (a partial
      * mix against the small column, medium-size mixes against the big one)
      * that displace the true answers in a Jaccard ranking but not in a
      * containment ranking (the LS story), plus a borderline bcol/ncol pair
      * that bounds containment's accuracy too.
      */
    def subCollection(
        cname: String, tag: String, nGroups: Int, skewFrac: Double, distractFrac: Double,
        fillerCols: Int, numericCols: Int, bigCard: Int, rnd: Random): Unit = {
      val nSkewed = math.round(nGroups * skewFrac).toInt
      for (g <- 0 until nGroups) {
        val skewed = g < nSkewed
        val distracted = skewed && (g < nSkewed * distractFrac)
        val domainRoot = s"$tag${g}key"
        if (skewed) {
          val big = dom(domainRoot, bigCard)
          val small = sampleDistinct(rnd, big, math.max(14, bigCard / 40))
          val bcol = sampleDistinct(rnd, big, math.max(2, (small.size * 0.72).toInt)) ++
            dom(s"${domainRoot}bx", math.max(1, (small.size * 0.28).toInt))
          val ncol = sampleDistinct(rnd, big, math.max(2, (small.size * 0.66).toInt)) ++
            dom(s"${domainRoot}nx", math.max(1, (small.size * 0.34).toInt))
          val keyCols = mutable.ArrayBuffer(big, small, bcol, ncol)
          if (distracted) {
            keyCols += mixed(rnd, small, 0.45, s"${domainRoot}px")
            val medSize = math.max(20, bigCard / 5)
            keyCols += (sampleDistinct(rnd, big, (medSize * 0.33).toInt) ++
              dom(s"${domainRoot}mx", (medSize * 0.67).toInt))
            if (cname == "LS")
              keyCols += (sampleDistinct(rnd, big, (medSize * 0.30).toInt) ++
                dom(s"${domainRoot}m2", (medSize * 0.70).toInt))
          }
          addGroupTables(cname, tag, g, keyCols.toVector, fillerCols, numericCols, rnd)
        } else {
          val domain = dom(domainRoot, 140)
          val a = sampleDistinct(rnd, domain, 110)
          val (bKeep, bFresh, nzKeep, nzFresh) =
            if (cname == "MS") (41, 15, 38, 18) else (56, 22, 53, 25)
          val b = sampleDistinct(rnd, a, bKeep) ++ dom(s"${domainRoot}fresh", bFresh)
          val noise1 = sampleDistinct(rnd, a, nzKeep) ++ dom(s"${domainRoot}nz", nzFresh)
          val noise2 = sampleDistinct(rnd, a, nzKeep - 3) ++ dom(s"${domainRoot}n2", nzFresh + 3)
          addGroupTables(cname, tag, g, Vector(a, b, noise1, noise2), fillerCols, numericCols, rnd)
        }
      }
    }

    def addGroupTables(cname: String, tag: String, g: Int, keyCols: Vector[Vector[String]],
        fillerCols: Int, numericCols: Int, rnd: Random): Unit = {
      for ((keys, v) <- keyCols.zipWithIndex) {
        val tname = s"${tag}_t${g}_$v"
        val cols = mutable.ArrayBuffer(Col(s"${tag}key$g", "id", keys))
        for (j <- 0 until fillerCols)
          cols += Col(s"attr${g}_${v}_$j", "text", dom(s"$tag${g}v${v}fill$j", 60 + rnd.nextInt(60)))
        for (j <- 0 until numericCols)
          cols += numeric(s"metric${g}_${v}_$j",
            (g * 61 + v * 13 + j) * 1000, (g * 61 + v * 13 + j) * 1000 + 500, 80, rnd)
        tables.add(cname, tname, cols)
      }
    }

    subCollection("SS", "mlss", nGroups = n(9, scale), skewFrac = 0.0, distractFrac = 0.0,
      fillerCols = 4, numericCols = 3, bigCard = 0, rnd = rnd)
    subCollection("MS", "mlms", nGroups = n(26, scale), skewFrac = 0.45, distractFrac = 0.5,
      fillerCols = 4, numericCols = 2, bigCard = 500, rnd = rnd)
    subCollection("LS", "mlls", nGroups = n(15, scale), skewFrac = 0.85, distractFrac = 0.8,
      fillerCols = 2, numericCols = 8, bigCard = 1400, rnd = rnd)

    // ---------------- review documents (1C: "manual" GT) ----------------
    val R = "Reviews"
    val nDocs = n(240, scale)
    val docRnd = new Random(seed + 29)
    val msTextCols = tables.in("MS").flatMap(_.columns)
      .filter(c => c.dtype == "text" || c.dtype == "id").toVector
    val reviewWords = Vector("movie", "plot", "actor", "scene", "rating", "sequel",
      "director", "script", "character", "soundtrack")
    val docs = mutable.ArrayBuffer.empty[RawDoc]
    val docColGt = mutable.Map.empty[String, Set[ColRef]]
    for (i <- 0 until nDocs) {
      val id = s"rev$i"
      if (docRnd.nextDouble() < 0.65) {
        val nCols = 1 + docRnd.nextInt(2)
        val picked = Vector.fill(nCols)(msTextCols(docRnd.nextInt(msTextCols.size)))
          .distinctBy(c => (c.table, c.column))
        val mentions = picked.flatMap(c => sampleDistinct(docRnd, c.values, 2 + docRnd.nextInt(3)))
        val noise = Vector.fill(5)(reviewWords(docRnd.nextInt(reviewWords.size)))
        docs += RawDoc(R, id, s"Review of ${mentions.head}",
          (mentions ++ noise).mkString("This dataset review mentions ", " and ", " throughout."))
        docColGt(id) = picked.map(c => ColRef(c.table, c.column)).toSet
      } else {
        docs += RawDoc(R, id, s"Casual review $i",
          Vector.fill(9)(reviewWords(docRnd.nextInt(reviewWords.size))).mkString("Thoughts on ", " ", "."))
      }
    }

    Lake(
      name = "ML-Open",
      tables = tables.all.toVector,
      docs = docs.toVector,
      docBenches = Seq(DocBench("1C", s"$R + MS", docColGt.toMap)),
      joinBenches = Seq("SS", "MS", "LS").map(c => tables.bruteForceBench(s"2C-$c", c)),
    )
  }
}
