package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RefListSpec extends AnyFunSuite {

  test("PolygonRef encodes id and interior flag") {
    val r = PolygonRef(12345, interior = true)
    assert(PolygonRef.polygonId(r) == 12345)
    assert(PolygonRef.isInterior(r))
    val b = PolygonRef(12345, interior = false)
    assert(!PolygonRef.isInterior(b))
    assert(PolygonRef.asInterior(b) == r)
    assert(PolygonRef.asBoundary(r) == b)
  }

  test("PolygonRef supports the max 30-bit id") {
    val r = PolygonRef(PolygonRef.MaxPolygonId, interior = false)
    assert(PolygonRef.polygonId(r) == PolygonRef.MaxPolygonId)
  }

  test("PolygonRef rejects out-of-range ids") {
    intercept[IllegalArgumentException](PolygonRef(-1, interior = false))
    intercept[IllegalArgumentException](PolygonRef(1 << 30, interior = false))
    for (interior <- Seq(true, false))
      intercept[IllegalArgumentException](PolygonRef(PolygonRef.MaxPolygonId + 1, interior))
  }

  test("RefList.of dedupes and sorts by polygon id") {
    val l = RefList.of(Array(
      PolygonRef(5, interior = false), PolygonRef(2, interior = true),
      PolygonRef(5, interior = false)))
    assert(l.size == 2)
    assert(l.refs.map(PolygonRef.polygonId).toSeq == Seq(2, 5))
  }

  test("interior wins over boundary for the same polygon") {
    val l = RefList.of(Array(PolygonRef(7, interior = false), PolygonRef(7, interior = true)))
    assert(l.size == 1)
    assert(PolygonRef.isInterior(l.refs(0)))
    val l2 = RefList.of(Array(PolygonRef(7, interior = true), PolygonRef(7, interior = false)))
    assert(l2 == l)
  }

  test("isExpensive iff a candidate (boundary) ref exists") {
    assert(RefList.of(Array(PolygonRef(1, interior = false))).isExpensive)
    assert(!RefList.of(Array(PolygonRef(1, interior = true))).isExpensive)
    assert(RefList.of(Array(PolygonRef(1, interior = true), PolygonRef(2, interior = false))).isExpensive)
    assert(!RefList.empty.isExpensive)
  }

  test("merge combines and renormalizes") {
    val a = RefList.of(Array(PolygonRef(1, interior = false)))
    val b = RefList.of(Array(PolygonRef(1, interior = true), PolygonRef(3, interior = false)))
    val m = a.merge(b)
    assert(m.size == 2)
    assert(PolygonRef.isInterior(m.refs(0)))
  }

  test("trueHits and candidates partition the refs") {
    val l = RefList.of(Array(
      PolygonRef(1, interior = true), PolygonRef(2, interior = false),
      PolygonRef(3, interior = true)))
    assert(l.trueHits.map(PolygonRef.polygonId).toSeq == Seq(1, 3))
    assert(l.candidates.map(PolygonRef.polygonId).toSeq == Seq(2))
  }

  test("equality is by content") {
    val a = RefList.of(Array(PolygonRef(1, interior = true), PolygonRef(2, interior = false)))
    val b = RefList.of(Array(PolygonRef(2, interior = false), PolygonRef(1, interior = true)))
    assert(a == b && a.hashCode == b.hashCode)
  }
}
