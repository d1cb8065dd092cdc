package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.Polygon
import repro.grid.CellId
import repro.spatial.SpatialData
import scala.collection.mutable

class SuperCoveringSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(4)

  private def assertDisjoint(sc: SuperCovering): Unit = {
    // Adjacent-in-id-order suffices: containment would make ranges overlap,
    // and overlapping ranges of disjoint-sorted cells are always adjacent.
    var prev = 0L
    var prevSet = false
    sc.foreachCell { (id, _) =>
      if (prevSet) {
        assert(CellId.rangeMax(prev) < CellId.rangeMin(id),
          s"cells $prev and $id overlap")
      }
      prev = id
      prevSet = true
    }
  }

  private def cellsOf(sc: SuperCovering): Seq[(Long, RefList)] = {
    val (ids, refs) = sc.toSortedArrays
    ids.toSeq.zip(refs)
  }

  /** `build` over the polygons in the given order, checked disjoint and
    * equal to `build` over them in reverse order.
    */
  private def buildInEitherOrder(coverings: Seq[(Int, Vector[Long])],
                                 interiors: Seq[(Int, Vector[Long])] = Seq.empty): SuperCovering = {
    val sc = SuperCovering.build(coverings, interiors)
    assertDisjoint(sc)
    assert(cellsOf(SuperCovering.build(coverings.reverse, interiors.reverse)) == cellsOf(sc),
      "polygon order changed the super covering")
    sc
  }

  private def boundary(pid: Int) = RefList(Array(PolygonRef(pid, interior = false)))

  test("disjoint cells come out unchanged in either polygon order") {
    val a = CellId.fromIJ(0, 0, 5)
    val b = CellId.fromIJ(3, 3, 5)
    val sc = buildInEitherOrder(Seq(1 -> Vector(a), 2 -> Vector(b)))
    assert(cellsOf(sc) == Seq(a -> boundary(1), b -> boundary(2)))
  }

  test("a cell in several polygons' coverings carries all their refs in either polygon order") {
    val a = CellId.fromIJ(1, 1, 6)
    val sc = buildInEitherOrder(Seq(1 -> Vector(a), 2 -> Vector(a)), Seq(3 -> Vector(a), 4 -> Vector(a)))
    assert(cellsOf(sc) == Seq(a -> RefList.of(Array(PolygonRef(1, interior = false),
      PolygonRef(2, interior = false), PolygonRef(3, interior = true), PolygonRef(4, interior = true)))))
  }

  test("a descendant splits its ancestor precision-preservingly in either polygon order") {
    val anc = CellId.fromIJ(0, 0, 4)
    val desc = CellId.fromIJ(1, 2, 6) // inside anc (i,j < 4 at level 6 scaled)
    assert(CellId.contains(anc, desc))
    val sc = buildInEitherOrder(Seq(1 -> Vector(anc), 2 -> Vector(desc)))
    // anc split into difference (3 * 2 levels = 6 cells) + desc
    assert(sc.cellCount == 7)
    // desc carries both refs, difference cells only polygon 1
    assert(sc.refsOf(desc).refs.map(PolygonRef.polygonId).toSet == Set(1, 2))
    sc.foreachCell { (id, refs) =>
      if (id != desc) assert(refs == boundary(1))
    }
    // area of anc is fully covered
    val area = {
      var s = 0.0
      sc.foreachCell((id, _) => s += CellId.bounds(id).area)
      s
    }
    assert(math.abs(area - CellId.bounds(anc).area) < 1e-6 * CellId.bounds(anc).area)
  }

  /** Cells inserted one at a time through [[InsertMerge.insert]]'s conflict
    * resolution, checked disjoint.
    */
  private def insertEach(inserts: (Long, Int)*): SuperCovering = {
    val cells = new InsertMerge.Cells
    for ((cell, ref) <- inserts) InsertMerge.insert(cells, cell, RefList(Array(ref)))
    val sc = InsertMerge.of(cells)
    assertDisjoint(sc)
    sc
  }

  test("inserting disjoint cells keeps them unchanged") {
    val a = CellId.fromIJ(0, 0, 5)
    val b = CellId.fromIJ(3, 3, 5)
    val sc = insertEach(a -> PolygonRef(1, interior = false), b -> PolygonRef(2, interior = false))
    assert(sc.cellCount == 2)
    assert(cellsOf(sc) == cellsOf(SuperCovering.build(Seq(1 -> Vector(a), 2 -> Vector(b)), Seq.empty)))
  }

  test("duplicate cell insert merges reference lists") {
    val a = CellId.fromIJ(1, 1, 6)
    val sc = insertEach(a -> PolygonRef(1, interior = false), a -> PolygonRef(2, interior = true))
    assert(sc.cellCount == 1)
    assert(sc.refsOf(a).size == 2)
    assert(cellsOf(sc) == cellsOf(SuperCovering.build(Seq(1 -> Vector(a)), Seq(2 -> Vector(a)))))
  }

  test("descendant insert splits the ancestor precision-preservingly") {
    val anc = CellId.fromIJ(0, 0, 4)
    val desc = CellId.fromIJ(1, 2, 6)
    assert(CellId.contains(anc, desc))
    val sc = insertEach(anc -> PolygonRef(1, interior = true), desc -> PolygonRef(2, interior = false))
    // anc split into difference (3 * 2 levels = 6 cells) + desc
    assert(sc.cellCount == 7)
    // desc carries both refs, difference cells only polygon 1
    assert(sc.refsOf(desc).refs.map(PolygonRef.polygonId).toSet == Set(1, 2))
    sc.foreachCell { (id, refs) =>
      if (id != desc) assert(refs.refs.map(PolygonRef.polygonId).toSeq == Seq(1))
    }
    assert(cellsOf(sc) == cellsOf(SuperCovering.build(Seq(2 -> Vector(desc)), Seq(1 -> Vector(anc)))))
  }

  test("ancestor insert over existing descendants pushes refs down") {
    val desc = CellId.fromIJ(1, 2, 6)
    val anc = CellId.fromIJ(0, 0, 4)
    val sc = insertEach(desc -> PolygonRef(2, interior = false), anc -> PolygonRef(1, interior = true))
    assert(sc.refsOf(desc).refs.map(PolygonRef.polygonId).toSet == Set(1, 2))
    // area of anc is fully covered
    val area = {
      var s = 0.0
      sc.foreachCell((id, _) => s += CellId.bounds(id).area)
      s
    }
    assert(math.abs(area - CellId.bounds(anc).area) < 1e-6 * CellId.bounds(anc).area)
    assert(cellsOf(sc) == cellsOf(SuperCovering.build(Seq(2 -> Vector(desc)), Seq(1 -> Vector(anc)))))
  }

  test("reference preservation: every (leaf, polygon) mapping survives merging") {
    // Random mini-coverings for 6 polygons, then check random leaf points.
    val covs = (0 until 6).map { pid =>
      pid -> Vector.fill(8) {
        val lvl = 3 + rnd.nextInt(5)
        CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)
      }.distinct
    }
    val sc = SuperCovering.build(covs, Seq.empty)
    assertDisjoint(sc)
    for (_ <- 1 to 2000) {
      val leaf = CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30)
      val expected = covs.filter(_._2.exists(c => CellId.contains(c, leaf))).map(_._1).toSet
      val cell = sc.cellContainingLeaf(leaf)
      val got = if (cell == 0L) Set.empty[Int]
                else sc.refsOf(cell).refs.map(PolygonRef.polygonId).toSet
      assert(got == expected, s"leaf=$leaf expected=$expected got=$got")
    }
  }

  test("interior flags survive merging") {
    val cov = Seq(0 -> Vector(CellId.fromIJ(0, 0, 3)))
    val interior = Seq(0 -> Vector(CellId.fromIJ(1, 1, 5)))
    val sc = SuperCovering.build(cov, interior)
    assertDisjoint(sc)
    val interiorCell = CellId.fromIJ(1, 1, 5)
    val refs = sc.refsOf(interiorCell)
    assert(!refs.isEmpty && PolygonRef.isInterior(refs.refs(0)))
  }

  test("build on a real polygon set produces a disjoint covering") {
    val polys = SpatialData.polygonGrid(4, 12, 0.2, 0.25, seed = 77L)
    val sc = SuperCovering.ofPolygons(polys)
    assert(sc.cellCount > polys.length)
    assertDisjoint(sc)
  }

  test("super covering contains interior (true-hit) cells for real polygons") {
    val polys = SpatialData.polygonGrid(3, 16, 0.15, 0.1, seed = 88L)
    val sc = SuperCovering.ofPolygons(polys)
    var interiorCells = 0
    sc.foreachCell((_, refs) => if (!refs.isExpensive) interiorCells += 1)
    assert(interiorCells > 0, "expected some solely-true-hit cells")
  }

  test("cellContainingLeaf finds ancestors whose id sorts after the leaf") {
    // Cell at level 2, query a leaf in its *first* quadrant: the leaf id is
    // smaller than the cell's own id.
    val cell = CellId.fromIJ(1, 1, 2)
    val sc = SuperCovering.build(Seq.empty, Seq(1 -> Vector(cell)))
    val b = CellId.bounds(cell)
    val leaf = CellId.fromPoint(b.xMin + 1e-3, b.yMin + 1e-3)
    assert(leaf < cell, "test setup: leaf must sort before the cell id")
    assert(sc.cellContainingLeaf(leaf) == cell)
    val leafHi = CellId.fromPoint(b.xMax - 1e-3, b.yMax - 1e-3)
    assert(sc.cellContainingLeaf(leafHi) == cell)
  }

  test("refineToPrecision leaves no expensive cell coarser than the bound") {
    val polys = SpatialData.polygonGrid(3, 14, 0.2, 0.1, seed = 99L)
    val sc = SuperCovering.ofPolygons(polys)
    val minLevel = CellId.levelForPrecision(15.0)
    SuperCovering.refineToPrecision(sc, minLevel, polys)
    assertDisjoint(sc)
    sc.foreachCell { (id, refs) =>
      if (refs.isExpensive)
        assert(CellId.level(id) >= minLevel,
          s"expensive cell at level ${CellId.level(id)} < $minLevel")
    }
  }

  test("refineToPrecision preserves join semantics for inside points") {
    val polys = SpatialData.polygonGrid(3, 14, 0.2, 0.1, seed = 100L)
    val sc = SuperCovering.ofPolygons(polys)
    val before = mutable.Map.empty[Long, Set[Int]]
    val testLeaves = Seq.fill(500) {
      val (x, y) = SpatialData.uniformPoint(rnd.nextLong(1 << 20), 3L)
      (x, y, CellId.fromPoint(x, y))
    }
    // Points strictly inside a polygon must still map to it after refinement.
    SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(4.0), polys)
    for ((x, y, leaf) <- testLeaves; p <- polys if p.contains(x, y)) {
      val cell = sc.cellContainingLeaf(leaf)
      assert(cell != 0L, s"inside point ($x,$y) lost its cell")
      val pids = sc.refsOf(cell).refs.map(PolygonRef.polygonId).toSet
      assert(pids.contains(p.id), s"inside point ($x,$y) lost polygon ${p.id}")
    }
    before.clear()
  }

  test("refineToPrecision increases cell count (finer boundary cells)") {
    val polys = SpatialData.polygonGrid(3, 14, 0.2, 0.1, seed = 101L)
    val sc1 = SuperCovering.ofPolygons(polys)
    val c1 = sc1.cellCount
    SuperCovering.refineToPrecision(sc1, CellId.levelForPrecision(4.0), polys)
    assert(sc1.cellCount > c1)
  }

  test("parallel covering builds leave the shared PIP edge counter alone") {
    // Cell classification runs on several threads at once; counting into
    // Polygon.edgeTests there lost updates.
    val polys = SpatialData.neighborhoods()
    val before = Polygon.edgeTests
    val (covs, ints) = SuperCovering.coverings(polys)
    assert(covs.nonEmpty && ints.nonEmpty)
    assert(Polygon.edgeTests == before)
  }

  test("parallel refinement leaves the shared PIP edge counter alone") {
    // Refinement classifies cells against polygons on several threads at
    // once, so Polygon.relation must not count into Polygon.edgeTests.
    val polys = SpatialData.neighborhoods()
    val sc = SuperCovering.ofPolygons(polys)
    val before = Polygon.edgeTests
    SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(4.0), polys)
    assert(sc.cellCount > 0)
    assert(Polygon.edgeTests == before)
  }
}
