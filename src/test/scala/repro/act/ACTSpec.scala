package repro.act

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ActIndex, PolygonRef, RefList, SuperCovering}
import repro.grid.CellId
import repro.index.SortedCellVector
import repro.metrics.ProbeCounter
import repro.spatial.SpatialData

class ACTSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(5)

  private def randomSuperCovering(nPolys: Int, cellsPerPoly: Int): SuperCovering = {
    val covs = (0 until nPolys).map { pid =>
      pid -> Vector.fill(cellsPerPoly) {
        val lvl = 2 + rnd.nextInt(10)
        CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)
      }.distinct
    }
    val ints = (0 until nPolys).map { pid =>
      pid -> Vector.fill(cellsPerPoly / 2) {
        val lvl = 4 + rnd.nextInt(10)
        CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)
      }.distinct
    }
    SuperCovering.build(covs, ints)
  }

  /** Node accesses of one probe of `leaf`: its depth. */
  private def depth(act: ACT, leaf: Long): Long = {
    val m = new ProbeCounter
    act.probe(leaf, m)
    m.accesses
  }

  /** An ACT over cells and their reference lists, encoded into `lut`. */
  private def actOf(bits: Int, ids: Array[Long], refs: Array[RefList],
                    lut: LookupTable = new LookupTable): ACT =
    ACT.build(bits, ids, refs.map(TaggedEntry.encode(_, lut)))

  for (bits <- Seq(2, 4, 8)) {
    test(s"ACT$bits probe agrees with sorted-vector reference on random coverings") {
      val sc = randomSuperCovering(8, 12)
      val (ids, refs) = sc.toSortedArrays
      val lutA = new LookupTable
      val lutL = new LookupTable
      val act = actOf(bits, ids, refs, lutA)
      val lb = SortedCellVector(ids, refs.map(r => TaggedEntry.encode(r, lutL)))
      for (_ <- 1 to 5000) {
        val leaf = CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30)
        val ea = act.probe(leaf)
        val el = lb.probe(leaf)
        assert(EntryRefs(ea, lutA) == EntryRefs(el, lutL),
          s"bits=$bits leaf=$leaf")
      }
    }
  }

  test("ACT rejects invalid fanouts") {
    intercept[IllegalArgumentException](new ACT(3))
    intercept[IllegalArgumentException](new ACT(16))
  }

  test("probing an empty ACT misses") {
    val act = actOf(8, Array.empty, Array.empty)
    assert(act.probe(CellId.fromPoint(100, 100)) == TaggedEntry.NoHit)
  }

  test("single-cell ACT hits inside and misses outside") {
    val cell = CellId.fromIJ(2, 3, 4)
    val refs = RefList(Array(PolygonRef(9, interior = true)))
    val act = actOf(8, Array(cell), Array(refs))
    val b = CellId.bounds(cell)
    for (_ <- 1 to 200) {
      val inX = b.xMin + rnd.nextDouble() * b.width
      val inY = b.yMin + rnd.nextDouble() * b.height
      val e = act.probe(CellId.fromPoint(inX, inY))
      assert(TaggedEntry.tag(e) == TaggedEntry.TagInline && TaggedEntry.inlineRef1(e) == refs.refs(0))
    }
    // Points in a different quadrant of the world must miss.
    val e2 = act.probe(CellId.fromPoint(b.xMax + 600, b.yMax + 600))
    assert(e2 == TaggedEntry.NoHit)
  }

  test("key extension: a cell whose key length is not a multiple of the fanout still matches everywhere") {
    for (bits <- Seq(4, 8)) {
      // level 3 -> 6 key bits; not a multiple of 4 or 8.
      val cell = CellId.fromIJ(5, 2, 3)
      val refs = RefList(Array(PolygonRef(3, interior = false)))
      val act = actOf(bits, Array(cell), Array(refs))
      val b = CellId.bounds(cell)
      for (_ <- 1 to 500) {
        val x = b.xMin + rnd.nextDouble() * b.width
        val y = b.yMin + rnd.nextDouble() * b.height
        val e = act.probe(CellId.fromPoint(x, y))
        assert(TaggedEntry.inlineRef1(e) == refs.refs(0), s"bits=$bits point=($x,$y)")
      }
    }
  }

  test("larger cells are found at smaller depths (adaptive height)") {
    val bigCell = CellId.fromIJ(0, 0, 4)     // 8 key bits -> depth 1 at fanout 256
    val smallCell = CellId.fromIJ((1L << 16) - 1, (1L << 16) - 1, 16) // 32 bits -> depth 4
    val refs = RefList(Array(PolygonRef(1, interior = true)))
    val act = actOf(8, Array(bigCell, smallCell).sorted, Array(refs, refs))
    val bBig = CellId.bounds(bigCell)
    val dBig = depth(act, CellId.fromPoint(bBig.centerX, bBig.centerY))
    val bSmall = CellId.bounds(smallCell)
    val dSmall = depth(act, CellId.fromPoint(bSmall.centerX, bSmall.centerY))
    assert(dBig < dSmall, s"big depth $dBig should be < small depth $dSmall")
  }

  test("higher fanout gives lower depth for the same covering") {
    val sc = randomSuperCovering(6, 10)
    val (ids, refs) = sc.toSortedArrays
    val a1 = actOf(2, ids, refs)
    val a4 = actOf(8, ids, refs)
    // Total traversal depth of the probes that hit a cell.
    def depthSum(act: ACT, leaves: Seq[Long]): Long = leaves.map { leaf =>
      val m = new ProbeCounter
      if (act.probe(leaf, m) == TaggedEntry.NoHit) 0L else m.accesses
    }.sum
    val leaves = Seq.fill(5000)(CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30))
    val d4 = depthSum(a4, leaves)
    val d1 = depthSum(a1, leaves)
    assert(d1 > 0, "no probe hit the covering")
    assert(d4 < d1, s"ACT4 depth $d4 should be < ACT1 depth $d1")
  }

  test("nodeAccesses metric counts accesses per probe") {
    val cell = CellId.fromIJ(0, 0, 4)
    val act = actOf(8, Array(cell),
      Array(RefList(Array(PolygonRef(1, interior = true)))))
    act.resetMetrics()
    val b = CellId.bounds(cell)
    val leaf = CellId.fromPoint(b.centerX, b.centerY)
    act.probe(leaf)
    act.probe(leaf)
    assert(act.nodeAccesses == 2, "the cell's 8 key bits sit in the root node: one access per probe")
  }

  test("writeCell push-down preserves surrounding values") {
    val parent = CellId.fromIJ(1, 1, 4)
    val refsP = RefList(Array(PolygonRef(1, interior = false)))
    val act = actOf(8, Array(parent), Array(refsP))
    // Overwrite one child with a different value (training-style refinement).
    val child = CellId.child(parent, 0)
    val refsC = RefList(Array(PolygonRef(2, interior = true)))
    val lut = new LookupTable
    act.writeCell(child, TaggedEntry.encode(refsC, lut))
    // Points in the overwritten child see the new value...
    val cb = CellId.bounds(child)
    val e1 = act.probe(CellId.fromPoint(cb.centerX, cb.centerY))
    assert(TaggedEntry.inlineRef1(e1) == refsC.refs(0))
    // ...while the remaining quadrants still see the old one.
    for (k <- 1 to 3) {
      val ob = CellId.bounds(CellId.child(parent, k))
      val e2 = act.probe(CellId.fromPoint(ob.centerX, ob.centerY))
      assert(TaggedEntry.inlineRef1(e2) == refsP.refs(0), s"quadrant $k lost its value")
    }
  }

  test("writeCell with NoHit clears an area") {
    val parent = CellId.fromIJ(2, 2, 4)
    val act = actOf(8, Array(parent),
      Array(RefList(Array(PolygonRef(1, interior = false)))))
    val child = CellId.child(parent, 1)
    act.writeCell(child, TaggedEntry.NoHit)
    val cb = CellId.bounds(child)
    assert(act.probe(CellId.fromPoint(cb.centerX, cb.centerY)) == TaggedEntry.NoHit)
    val ob = CellId.bounds(CellId.child(parent, 2))
    assert(act.probe(CellId.fromPoint(ob.centerX, ob.centerY)) != TaggedEntry.NoHit)
  }

  test("root common prefix is used when all cells share one") {
    // All cells in one level-4 cell: 8 bits of common prefix.
    val base = CellId.fromIJ(3, 3, 4)
    val cells = (0 to 3).map(k => CellId.child(CellId.child(base, k), 1)).sorted.toArray
    val refs = cells.map(_ => RefList(Array(PolygonRef(1, interior = true))))
    val act = actOf(8, cells, refs)
    // A probe far away must be rejected by the prefix check without node access.
    act.resetMetrics()
    val far = CellId.fromPoint(10, 10)
    assert(act.probe(far) == TaggedEntry.NoHit)
    assert(act.nodeAccesses == 0, "prefix check should shortcut the miss")
    // And probes inside still work.
    val b = CellId.bounds(cells(0))
    assert(act.probe(CellId.fromPoint(b.centerX, b.centerY)) != TaggedEntry.NoHit)
  }

  test("sizeBytes grows with node count") {
    val sc = randomSuperCovering(6, 10)
    val (ids, refs) = sc.toSortedArrays
    val act = actOf(8, ids, refs)
    assert(act.sizeBytes == act.nodeCount.toLong * 256 * 8)
  }

  test("ACT over a real polygon set resolves interior points to true hits") {
    val polys = SpatialData.polygonGrid(3, 12, 0.15, 0.05, seed = 200L)
    val idx = ActIndex.build(polys, 8, precisionMeters = Some(15.0))
    var trueHits = 0
    for (_ <- 1 to 2000) {
      val (x, y) = SpatialData.uniformPoint(rnd.nextLong(1 << 20), 9L)
      val e = idx.act.probe(CellId.fromPoint(x, y))
      if (TaggedEntry.tag(e) == TaggedEntry.TagInline) {
        val r = TaggedEntry.inlineRef1(e)
        if (PolygonRef.isInterior(r)) {
          trueHits += 1
          // A true hit must really be inside the polygon.
          assert(polys(PolygonRef.polygonId(r)).contains(x, y),
            s"false true-hit at ($x,$y)")
        }
      }
    }
    assert(trueHits > 100, s"expected many true hits, got $trueHits")
  }
}
