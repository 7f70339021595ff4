package repro.discover

import repro.{SparkSpec, TestFixtures}

class UnionDiscoverySpec extends SparkSpec {
  import UnionDiscovery._

  private lazy val cmdl = TestFixtures.cmdlPharma
  private lazy val syn = cmdl.profilesIn("DrugBank-Synthetic")
  private lazy val index = new UnionIndex(syn)
  private lazy val gt = TestFixtures.pharma.unionBenches.find(_.id == "3B").get.queries

  test("ensemble finds same-family variants") {
    val (q, answers) = gt.head
    val top = index.topK(q, answers.size + 1, ensembleScore).map(_._1)
    assert(top.toSet.intersect(answers).nonEmpty)
  }

  test("semantic measure alone finds variants (values share domains)") {
    val (q, answers) = gt.head
    val top = index.topK(q, answers.size + 2, semanticScore).map(_._1)
    assert(top.toSet.intersect(answers).nonEmpty)
  }

  test("name measure is weakened by renaming (3B design)") {
    val hits = gt.keys.toSeq.sorted.count { q =>
      index.topK(q, gt(q).size, nameScore).map(_._1).toSet.intersect(gt(q)).nonEmpty
    }
    val semHits = gt.keys.toSeq.sorted.count { q =>
      index.topK(q, gt(q).size, semanticScore).map(_._1).toSet.intersect(gt(q)).nonEmpty
    }
    assert(semHits >= hits)
  }

  test("numeric measure answers almost nothing on 3B (few numeric cols)") {
    val answered = gt.keys.toSeq.count { q =>
      index.topK(q, gt(q).size, numericScore).map(_._1).toSet.intersect(gt(q)).nonEmpty
    }
    assert(answered.toDouble / gt.size < 0.5)
  }

  test("measure scores are within [0,1]") {
    for (a <- syn.take(5); b <- syn.take(5)) {
      for ((m, score) <- Measures) {
        val s = score(a, b)
        assert(s >= 0.0 && s <= 1.0 + 1e-9, s"$m($a.ref, $b.ref) = $s")
      }
    }
  }

  test("numeric score is zero unless both columns are numeric") {
    val text = syn.filter(!_.isNumeric)
    if (text.size >= 2) assert(numericScore(text.head, text(1)) === 0.0)
  }

  test("ensemble includes numeric only for numeric pairs") {
    val nums = syn.filter(p => p.isNumeric && !p.numMin.isNaN)
    if (nums.size >= 2) {
      val e = ensembleScore(nums.head, nums(1))
      assert(e >= 0.0 && e <= 1.0)
    }
  }

  test("bipartiteMatch never reuses a column on either side") {
    val left = syn.filter(_.table == gt.head._1)
    val right = syn.filter(_.table == gt.head._2.head)
    val matched = bipartiteMatch(left, right, ensembleScore)
    assert(matched.map(_._1.ref).distinct.size === matched.size)
    assert(matched.map(_._2.ref).distinct.size === matched.size)
  }

  test("bipartiteMatch pairs the highest-score combination first") {
    val left = syn.filter(_.table == gt.head._1)
    val right = syn.filter(_.table == gt.head._2.head)
    val matched = bipartiteMatch(left, right, ensembleScore)
    if (matched.size >= 2) assert(matched.head._3 >= matched.last._3)
  }

  test("tableScore of a table against itself-like variant is positive") {
    val (q, answers) = gt.head
    val left = syn.filter(_.table == q)
    val right = syn.filter(_.table == answers.head)
    assert(tableScore(left, right, ensembleScore) > 0)
  }

  test("tableScore with empty side is zero") {
    assert(tableScore(Seq.empty, syn.take(2), ensembleScore) === 0.0)
  }

  test("topK excludes the query table itself") {
    val q = gt.head._1
    assert(!index.topK(q, 10, ensembleScore).map(_._1).contains(q))
  }

  test("union index over uk-open groups ranks same-prototype variants first") {
    val idx = new UnionIndex(TestFixtures.cmdlUkOpen.profilesIn("Govt. data"))
    val gtA = TestFixtures.ukOpen.unionBenches.find(_.id == "3A").get.queries
    val sample = gtA.keys.toSeq.sorted.take(6)
    val rp = sample.map { q =>
      val k = gtA(q).size
      idx.topK(q, k, ensembleScore).map(_._1).count(gtA(q).contains).toDouble / k
    }.sum / sample.size
    assert(rp > 0.5, s"ensemble R-precision on 3A sample was $rp")
  }
}
