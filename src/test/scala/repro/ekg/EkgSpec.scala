package repro.ekg

import org.scalatest.funsuite.AnyFunSuite

class EkgSpec extends AnyFunSuite {

  private def graph: Ekg = {
    val g = new Ekg
    g.add("drugs", "enzyme_targets", "pkfk", 0.9)
    g.add("drugs", "trials", "pkfk", 0.7)
    g.add("drugs", "syn_drugs_v0", "unionable", 0.8)
    g.add("pmid1", "drugs", "crossmodal", 0.6)
    g
  }

  test("neighbors are returned best-first per relationship type") {
    assert(graph.neighbors("drugs", "pkfk").map(_._1) === Seq("enzyme_targets", "trials"))
  }

  test("neighbors of missing node are empty") {
    assert(graph.neighbors("nope", "pkfk").isEmpty)
  }

  test("nodes include both endpoints") {
    val g = graph
    assert(g.nodes.contains("pmid1") && g.nodes.contains("syn_drugs_v0"))
  }

  test("size counts edges") {
    assert(graph.size === 4)
  }

  test("re-adding an edge keeps size and neighbors, with the last weight written") {
    val g = graph
    g.add("drugs", "trials", "pkfk", 0.7)
    assert(g.size === 4)
    assert(g.neighbors("drugs", "pkfk") === Seq("enzyme_targets" -> 0.9, "trials" -> 0.7))
    g.add("drugs", "trials", "pkfk", 0.95)
    assert(g.size === 4)
    assert(g.neighbors("drugs", "pkfk") === Seq("trials" -> 0.95, "enzyme_targets" -> 0.9))
    g.add("drugs", "trials", "unionable", 0.5)
    assert(g.size === 5)
  }
}
