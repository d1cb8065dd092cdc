package repro.index

import repro.geo.{MBR, Polygon}
import repro.grid.CellId

/** Baseline "SI" (§4.2): a Google-S2ShapeIndex-style cell→edge index.
  *
  * Space is subdivided (quadtree) until a cell holds at most
  * `maxEdgesPerCell` polygon edges (the paper evaluates SI1 and SI10 for 1
  * and 10 edges/cell). A leaf stores the edges intersecting it plus, per
  * referenced polygon, whether the *cell centre* lies inside — the
  * restricted PIP then only counts crossings of the segment
  * `query point → cell centre` against the leaf's edges:
  * any polygon edge crossing that segment must intersect the cell, so the
  * leaf-local parity equals the global parity. Polygons containing the
  * centre with no edges in the cell are true hits (the whole cell is
  * interior), which is exactly S2ShapeIndex's true-hit filtering.
  */
final class ShapeEdgeIndex private (
    leaves: java.util.TreeMap[Long, ShapeEdgeIndex.Leaf],
) extends Serializable {

  var accessCount: Long = 0L
  var edgeTests: Long = 0L
  def resetMetrics(): Unit = { accessCount = 0L; edgeTests = 0L }

  def leafCount: Int = leaves.size

  /** Edge tuples (5 doubles + pid) + centre-state lists + tree map entry. */
  def sizeBytes: Long = {
    var b = 0L
    val it = leaves.values().iterator()
    while (it.hasNext) {
      val l = it.next()
      b += 48 + l.edgePid.length * 40L + l.centerInsidePids.length * 4L
    }
    b
  }

  /** Join-compatible lookup: returns (trueHitPids, candidate decisions are
    * made inline via the restricted PIP). Results appended to `out`.
    */
  def query(x: Double, y: Double, out: java.util.ArrayList[Integer]): Unit = {
    out.clear()
    val leafId = CellId.fromPoint(x, y)
    accessCount += 1
    // An ancestor cell's own id can sort after the query leaf id, so check
    // both id-order neighbours (cf. SuperCovering.cellContainingLeaf).
    var e = leaves.floorEntry(leafId)
    if (e == null || !CellId.contains(e.getKey, leafId)) {
      e = leaves.ceilingEntry(leafId)
      if (e == null || !CellId.contains(e.getKey, leafId)) return
    }
    val leaf = e.getValue
    val b = CellId.bounds(e.getKey)
    val cx = b.centerX
    val cy = b.centerY
    // Polygons wholly covering the cell (no edges inside): true hits.
    var i = 0
    while (i < leaf.centerInsidePids.length) {
      val pid = leaf.centerInsidePids(i)
      if (!leaf.edgePidSet.contains(pid)) out.add(pid)
      i += 1
    }
    // Edge-referenced polygons: leaf-local parity test.
    leaf.edgePidDistinct.foreach { pid =>
      var crossings = 0
      var k = 0
      while (k < leaf.edgePid.length) {
        if (leaf.edgePid(k) == pid) {
          edgeTests += 1
          if (Polygon.segmentsCross(x, y, cx, cy,
                leaf.ex1(k), leaf.ey1(k), leaf.ex2(k), leaf.ey2(k))) crossings += 1
        }
        k += 1
      }
      val centerIn = java.util.Arrays.binarySearch(leaf.centerInsidePids, pid) >= 0
      if (centerIn ^ (crossings % 2 == 1)) out.add(pid)
    }
  }
}

object ShapeEdgeIndex {

  /** Leaf payload: parallel edge arrays + sorted pid list of polygons whose
    * interior contains the cell centre.
    */
  final class Leaf(
      val edgePid: Array[Int],
      val ex1: Array[Double], val ey1: Array[Double],
      val ex2: Array[Double], val ey2: Array[Double],
      val centerInsidePids: Array[Int],
  ) extends Serializable {
    val edgePidDistinct: Array[Int] = edgePid.distinct.sorted
    val edgePidSet: Set[Int] = edgePidDistinct.toSet
  }

  private final case class Edge(pid: Int, x1: Double, y1: Double, x2: Double, y2: Double)

  val MaxLevel = 20

  /** Build with at most `maxEdgesPerCell` edges per leaf (SI1 / SI10). */
  def apply(polys: Array[Polygon], maxEdgesPerCell: Int): ShapeEdgeIndex = {
    val allEdges = polys.flatMap { p =>
      (0 until p.n).map { i =>
        val j = (i + 1) % p.n
        Edge(p.id, p.xs(i), p.ys(i), p.xs(j), p.ys(j))
      }
    }
    val leaves = new java.util.TreeMap[Long, Leaf]()

    def edgeInCell(e: Edge, b: MBR): Boolean =
      Polygon.segmentIntersectsRect(e.x1, e.y1, e.x2, e.y2, b)

    def build(cell: Long, edges: Array[Edge]): Unit = {
      val lvl = CellId.level(cell)
      if (edges.length > maxEdgesPerCell && lvl < MaxLevel) {
        var k = 0
        while (k < 4) {
          val c = CellId.child(cell, k)
          val b = CellId.bounds(c)
          val sub = edges.filter(e => edgeInCell(e, b))
          build(c, sub)
          k += 1
        }
      } else {
        val b = CellId.bounds(cell)
        val cx = b.centerX
        val cy = b.centerY
        // Polygons whose interior contains the centre (full PIP at build
        // time only — queries never run a full PIP).
        val centerIn = polys.iterator
          .filter(p => p.mbr.containsPoint(cx, cy) && p.contains(cx, cy))
          .map(_.id).toArray.sorted
        if (edges.nonEmpty || centerIn.nonEmpty) {
          leaves.put(cell, new Leaf(
            edges.map(_.pid),
            edges.map(_.x1), edges.map(_.y1),
            edges.map(_.x2), edges.map(_.y2),
            centerIn))
        }
      }
    }

    build(CellId.fromPath60(0L, 0), allEdges)
    new ShapeEdgeIndex(leaves)
  }
}
