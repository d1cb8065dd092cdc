package repro.act

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{PolygonRef, RefList}

class TaggedEntrySpec extends AnyFunSuite {

  test("no-hit is zero") { assert(TaggedEntry.NoHit == 0L) }

  test("pointer round-trip") {
    for (idx <- Seq(0, 1, 42, 1 << 20)) {
      val e = TaggedEntry.pointer(idx)
      assert(TaggedEntry.tag(e) == TaggedEntry.TagPointer)
      assert(TaggedEntry.pointerTarget(e) == idx)
    }
  }

  test("single inlined reference round-trip") {
    for (pid <- Seq(0, 1, 999, PolygonRef.MaxPolygonId - 1, PolygonRef.MaxPolygonId); interior <- Seq(true, false)) {
      val r = PolygonRef(pid, interior)
      val e = TaggedEntry.inline1(r)
      assert(TaggedEntry.tag(e) == TaggedEntry.TagInline)
      assert(TaggedEntry.inlineRef1(e) == r)
      assert(TaggedEntry.inlineRef2(e) == -1, "second slot must be absent")
    }
  }

  test("double inlined reference round-trip") {
    val max = PolygonRef.MaxPolygonId
    for ((p1, p2) <- Seq((77, 1234567), (max, 0), (0, max), (max - 1, max));
         i1 <- Seq(true, false); i2 <- Seq(true, false)) {
      val r1 = PolygonRef(p1, i1)
      val r2 = PolygonRef(p2, i2)
      val e = TaggedEntry.inline2(r1, r2)
      assert(TaggedEntry.tag(e) == TaggedEntry.TagInline)
      assert(TaggedEntry.inlineRef1(e) == r1, s"ref1 of ($r1, $r2)")
      assert(TaggedEntry.inlineRef2(e) == r2, s"ref2 of ($r1, $r2)")
    }
  }

  test("offset round-trip") {
    for (off <- Seq(0, 5, 1 << 28)) {
      val e = TaggedEntry.offset(off)
      assert(TaggedEntry.tag(e) == TaggedEntry.TagOffset)
      assert(TaggedEntry.offsetValue(e) == off)
    }
  }

  test("encode picks inline for <=2 refs, lookup table for >=3") {
    val lut = new LookupTable
    val one = RefList.of(Array(PolygonRef(1, interior = true)))
    val two = RefList.of(Array(PolygonRef(1, interior = true), PolygonRef(2, interior = false)))
    val three = RefList.of(Array(PolygonRef(1, interior = true),
      PolygonRef(2, interior = false), PolygonRef(3, interior = true)))
    assert(TaggedEntry.tag(TaggedEntry.encode(one, lut)) == TaggedEntry.TagInline)
    assert(TaggedEntry.tag(TaggedEntry.encode(two, lut)) == TaggedEntry.TagInline)
    assert(TaggedEntry.tag(TaggedEntry.encode(three, lut)) == TaggedEntry.TagOffset)
    assert(TaggedEntry.encode(RefList.empty, lut) == TaggedEntry.NoHit)
  }

  test("encode/decode round-trips through the lookup table") {
    val lut = new LookupTable
    val refs = RefList.of(Array(
      PolygonRef(10, interior = true), PolygonRef(20, interior = false),
      PolygonRef(30, interior = true), PolygonRef(40, interior = false)))
    val e = TaggedEntry.encode(refs, lut)
    assert(EntryRefs(e, lut) == refs)
  }

  test("encode/decode round-trips inline entries") {
    val lut = new LookupTable
    for (refs <- Seq(
      RefList.of(Array(PolygonRef(5, interior = false))),
      RefList.of(Array(PolygonRef(5, interior = true), PolygonRef(9, interior = false))))) {
      assert(EntryRefs(TaggedEntry.encode(refs, lut), lut) == refs)
    }
  }

  test("isExpensive reads an entry's candidates like RefList.isExpensive, for every kind of entry") {
    val lut = new LookupTable
    def ref(pid: Int, interior: Boolean) = PolygonRef(pid, interior)
    val lists = Seq(RefList.empty) ++
      (for (i <- Seq(true, false)) yield RefList.of(Array(ref(3, i)))) ++
      (for (i1 <- Seq(true, false); i2 <- Seq(true, false)) yield RefList.of(Array(ref(3, i1), ref(PolygonRef.MaxPolygonId, i2)))) ++
      (for (flags <- Seq(Seq(true, true, true), Seq(true, false, true), Seq(false, false, false), Seq(true, true, true, false)))
        yield RefList.of(flags.zipWithIndex.map { case (i, pid) => ref(pid, i) }.toArray))
    for (refs <- lists)
      assert(TaggedEntry.isExpensive(TaggedEntry.encode(refs, lut), lut) == refs.isExpensive, refs)
  }

  test("lookup table dedupes identical reference lists") {
    val lut = new LookupTable
    val refs = RefList.of(Array(PolygonRef(1, interior = true),
      PolygonRef(2, interior = false), PolygonRef(3, interior = true)))
    val o1 = lut.internAll(refs)
    val o2 = lut.internAll(refs)
    assert(o1 == o2)
    assert(lut.sizeInts == 2 + refs.size)
  }

  test("lookup table layout: [nTrue, pids..., nCand, pids...]") {
    val lut = new LookupTable
    val refs = RefList.of(Array(PolygonRef(4, interior = false),
      PolygonRef(2, interior = true), PolygonRef(9, interior = true)))
    val off = lut.internAll(refs)
    assert(lut(off) == 2)          // two true hits
    assert(lut(off + 1) == 2 && lut(off + 2) == 9)
    assert(lut(off + 3) == 1)      // one candidate
    assert(lut(off + 4) == 4)
  }

  test("refsInto writes an entry's references into a caller buffer") {
    val lut = new LookupTable
    val refs = RefList.of(Array(PolygonRef(4, interior = false),
      PolygonRef(2, interior = true), PolygonRef(9, interior = true)))
    val buf = new Array[Int](8)
    val n = TaggedEntry.refsInto(TaggedEntry.encode(refs, lut), lut, buf)
    assert(buf.take(n).toSeq == Seq(PolygonRef(2, interior = true),
      PolygonRef(9, interior = true), PolygonRef(4, interior = false)))
    assert(TaggedEntry.refsInto(TaggedEntry.inline1(refs.refs(0)), lut, buf) == 1)
    assert(buf(0) == refs.refs(0))
    assert(TaggedEntry.refsInto(TaggedEntry.NoHit, lut, buf) == 0)
  }
}
