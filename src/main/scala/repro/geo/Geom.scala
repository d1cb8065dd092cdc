package repro.geo

import repro.metrics.ProbeCounter

/** Planar geometry substrate for the point-polygon join reproduction.
  *
  * The paper works on the Earth's surface via Google S2 (unit sphere, cube
  * projection). Our world is a planar square `[0, W) x [0, W)` in metres
  * (a "mini city", see DESIGN.md §2) — every geometric primitive the paper
  * needs (PIP via ray crossing, rectangle-polygon classification, segment
  * intersection) is implemented here from scratch.
  */
object Geom {

  /** World side length in metres. Level-`l` quadtree cells have side
    * `World / 2^l`; see [[repro.grid.CellId]].
    */
  val World: Double = 8192.0
}

/** Axis-aligned rectangle `[xMin, xMax] x [yMin, yMax]` (closed). */
final case class MBR(xMin: Double, yMin: Double, xMax: Double, yMax: Double) {
  def containsPoint(x: Double, y: Double): Boolean =
    x >= xMin && x <= xMax && y >= yMin && y <= yMax

  def contains(o: MBR): Boolean =
    o.xMin >= xMin && o.xMax <= xMax && o.yMin >= yMin && o.yMax <= yMax

  def intersects(o: MBR): Boolean =
    o.xMin <= xMax && o.xMax >= xMin && o.yMin <= yMax && o.yMax >= yMin

  def union(o: MBR): MBR =
    MBR(math.min(xMin, o.xMin), math.min(yMin, o.yMin),
        math.max(xMax, o.xMax), math.max(yMax, o.yMax))

  def width: Double  = xMax - xMin
  def height: Double = yMax - yMin
  def area: Double   = width * height
  def centerX: Double = (xMin + xMax) / 2
  def centerY: Double = (yMin + yMax) / 2

  /** Diagonal length — the paper's precision bound is the max diagonal of a
    * boundary cell (`sqrt(2) * side`).
    */
  def diagonal: Double = math.hypot(width, height)
}

/** Relation of an axis-aligned cell to a polygon, used to classify quadtree
  * cells while building coverings (interior / boundary / outside).
  */
sealed trait CellRelation
object CellRelation {
  /** Cell fully inside the polygon — a true-hit (interior) cell. */
  case object Inside extends CellRelation
  /** Cell intersects the polygon boundary (or contains part of it). */
  case object Boundary extends CellRelation
  /** Cell entirely outside the polygon. */
  case object Outside extends CellRelation
}

/** A simple polygon (no holes) given by its vertex ring (implicitly closed).
  *
  * `id` is the polygon's 30-bit identifier used in ACT polygon references.
  * The ray-crossing PIP test counts edge evaluations in a [[ProbeCounter]]
  * so benchmarks can report PIP work exactly like the paper reports PIP-test
  * counts (§4.2).
  *
  * Cell classification ([[relation]]) reads the polygon through a y-band
  * edge index ([[EdgeBands]]), built on first use and never serialized: a
  * deserialized polygon rebuilds it. Probing ([[contains]]) walks the ring.
  */
final case class Polygon(id: Int, xs: Array[Double], ys: Array[Double]) {
  require(xs.length == ys.length && xs.length >= 3, s"polygon $id needs >=3 vertices")

  val n: Int = xs.length

  /** Precomputed minimum bounding rectangle (the classical filter). */
  val mbr: MBR = {
    var x0 = xs(0); var x1 = xs(0); var y0 = ys(0); var y1 = ys(0)
    var i = 1
    while (i < n) {
      if (xs(i) < x0) x0 = xs(i); if (xs(i) > x1) x1 = xs(i)
      if (ys(i) < y0) y0 = ys(i); if (ys(i) > y1) y1 = ys(i)
      i += 1
    }
    MBR(x0, y0, x1, y1)
  }

  /** The edge index of [[relation]]. */
  @transient private lazy val bands: EdgeBands = new EdgeBands(xs, ys, mbr)

  /** Ray-crossing point-in-polygon test (Haines [17] in the paper); O(n).
    *
    * Points exactly on an edge follow the half-open crossing rule (an edge
    * counts when it spans `py` half-open in y and `px` lies strictly left of
    * it), not ST_Covers: on an axis-aligned square, points on the bottom and
    * left edges are inside and points on the top and right edges are
    * outside, so a point on an edge shared by two polygons joins one of
    * them. Which rule to keep is ROADMAP item 4.
    *
    * It walks all n edges, not the y-band index that [[relation]] reads, for
    * a measured reason: through the bands the boroughs exact kernel rose from
    * about 26 to 41 Mpts/s, but a PIP test then cost so little that Table 6's
    * trained index, whose value is the PIP tests it avoids, no longer beat
    * the untrained one by the 1.1x the bench requires (0.99–1.07x in 4 of 4
    * runs). The paper's PIP, whose cost training saves, is this O(n) walk.
    *
    * Counts the edges walked into [[Polygon.edgeTests]], so it is for one
    * thread at a time; concurrent callers pass their own counter.
    */
  def contains(px: Double, py: Double): Boolean = contains(px, py, Polygon.shared)

  /** [[contains]], counting the edges walked into `m.edges`. */
  def contains(px: Double, py: Double, m: ProbeCounter): Boolean = {
    if (!mbr.containsPoint(px, py)) return false
    m.edges += n
    var inside = false
    var i = 0
    var j = n - 1
    while (i < n) {
      if (Polygon.crosses(xs(i), ys(i), xs(j), ys(j), px, py)) inside = !inside
      j = i
      i += 1
    }
    inside
  }

  /** Classify rectangle `r` against this polygon.
    *
    * A rect is `Boundary` iff some polygon edge intersects it (then the rect
    * straddles the boundary) or the polygon lies inside the rect; `Inside`
    * iff no edge touches it and its centre is inside; else `Outside`.
    *
    * Only the edges of the bands from `r.yMin`'s to `r.yMax`'s are tested,
    * and the centre's parity reads only the centre's band. The answer is
    * that of testing every edge: an edge that meets `r` has a y-span that
    * meets `r`'s, and an edge that flips the parity at height `cy` spans
    * `cy`, so each is filed in a band tested (band numbers grow with y).
    * The centre test counts no PIP edges: covering builds classify cells on
    * several threads at once, and the shared counter is for probing only.
    */
  def relation(r: MBR): CellRelation = {
    if (!mbr.intersects(r)) return CellRelation.Outside
    val b = bands
    val e = b.edges
    var k = 4 * b.start(b.bandOf(r.yMin))
    val end = 4 * b.start(b.bandOf(r.yMax) + 1)
    while (k < end) {
      if (Polygon.segmentIntersectsRect(e(k + 2), e(k + 3), e(k), e(k + 1), r))
        return CellRelation.Boundary
      k += 4
    }
    // No edge crosses the rect: either rect wholly inside or wholly outside
    // the polygon (a polygon wholly inside the rect would have its edges
    // inside the rect, caught above).
    val cx = r.centerX; val cy = r.centerY
    if (!mbr.containsPoint(cx, cy)) return CellRelation.Outside
    val c = b.bandOf(cy)
    var inside = false
    k = 4 * b.start(c)
    val cEnd = 4 * b.start(c + 1)
    while (k < cEnd) {
      if (Polygon.crosses(e(k), e(k + 1), e(k + 2), e(k + 3), cx, cy)) inside = !inside
      k += 4
    }
    if (inside) CellRelation.Inside else CellRelation.Outside
  }
}

/** A polygon's y-band edge index, for cell classification
  * ([[Polygon.relation]]), like the edge index S2 keeps for loops too large
  * to scan. The MBR's height is cut into [[count]] equal bands, and each
  * edge `j -> i` of the ring (`j = i - 1`, cyclically) is filed, as
  * `(xi, yi, xj, yj)`, under every band from that of its lowest y to that of
  * its highest, horizontal edges included. The edges of band `b` are
  * `edges(4 * start(b) until 4 * start(b + 1))`, in ring order, and those of
  * bands `lo..hi` are one run of the array.
  *
  * There are max(1, n/2) bands (one if the polygon has no height), halved
  * while an edge would be filed more than [[EdgeBands.MaxFilings]] times on
  * average, so that long edges crossing many bands cannot make the index
  * quadratic in n.
  */
private[geo] final class EdgeBands(xs: Array[Double], ys: Array[Double], mbr: MBR) {
  private val n = xs.length

  /** The number of bands. */
  val count: Int = {
    var k = if (mbr.height > 0) math.max(1, n / 2) else 1
    while (k > 1 && filings(k) > EdgeBands.MaxFilings * n) k /= 2
    k
  }

  /** Bands per unit of height, if there are `k`: 0 for a polygon of zero
    * height, whose one band holds every edge.
    */
  private def scaleOf(k: Int): Double = if (mbr.height > 0) k / mbr.height else 0.0
  private val scale = scaleOf(count)

  /** The band of height `y`, clamped to the index: monotone in `y`. */
  @inline def bandOf(y: Double): Int = EdgeBands.bandOf(y, mbr.yMin, scale, count)

  /** Call `f(i, b)` for each band `b` under which `k` bands file the edge
    * ending at vertex `i`.
    */
  private def foreachFiling(k: Int)(f: (Int, Int) => Unit): Unit = {
    val s = scaleOf(k)
    var i = 0
    var j = n - 1
    while (i < n) {
      var b = EdgeBands.bandOf(math.min(ys(i), ys(j)), mbr.yMin, s, k)
      val hi = EdgeBands.bandOf(math.max(ys(i), ys(j)), mbr.yMin, s, k)
      while (b <= hi) { f(i, b); b += 1 }
      j = i
      i += 1
    }
  }

  /** How many (edge, band) filings `k` bands make. */
  private def filings(k: Int): Long = {
    var total = 0L
    foreachFiling(k)((_, _) => total += 1)
    total
  }

  /** Where each band's edges begin, in edges; `start(count)` ends the last. */
  val start: Array[Int] = {
    val st = new Array[Int](count + 1)
    foreachFiling(count)((_, b) => st(b + 1) += 1)
    for (b <- 0 until count) st(b + 1) += st(b)
    st
  }

  /** Each filed edge as `(xi, yi, xj, yj)`, band by band. */
  val edges: Array[Double] = {
    val out = new Array[Double](4 * start(count))
    val next = java.util.Arrays.copyOf(start, count)
    foreachFiling(count) { (i, b) =>
      val j = if (i == 0) n - 1 else i - 1
      val k = 4 * next(b)
      out(k) = xs(i); out(k + 1) = ys(i); out(k + 2) = xs(j); out(k + 3) = ys(j)
      next(b) += 1
    }
    out
  }
}

private[geo] object EdgeBands {
  /** The most filings per edge, on average, that an index may hold. The
    * boroughs file each edge under about 9 of their 331 bands; a star of
    * 2000 vertices with radial jitter 0.5 files it under about 76 of 1000.
    */
  final val MaxFilings = 16

  @inline def bandOf(y: Double, yMin: Double, scale: Double, count: Int): Int = {
    val b = ((y - yMin) * scale).toInt
    if (b < 0) 0 else if (b >= count) count - 1 else b
  }
}

object Polygon {
  /** Counter of the one-argument [[Polygon.contains]]. */
  private val shared = new ProbeCounter

  /** PIP edges walked by one-argument `contains` calls and by recorded
    * kernel calls since the last reset. Read it after the probing threads
    * have finished.
    */
  def edgeTests: Long = shared.edges
  def resetEdgeTests(): Unit = synchronized { shared.edges = 0L }

  /** Add the edges counted in `m` to [[edgeTests]]; safe from any thread. */
  def record(m: ProbeCounter): Unit = synchronized { shared.edges += m.edges }

  /** The ray-crossing step of [[Polygon.contains]] and [[Polygon.relation]]:
    * true iff edge `(xi, yi)`-`(xj, yj)` spans `py` half-open in y and
    * `(px, py)` lies strictly left of it, so a ray towards +x crosses it.
    */
  @inline private def crosses(xi: Double, yi: Double, xj: Double, yj: Double,
                              px: Double, py: Double): Boolean =
    (yi > py) != (yj > py) && px < (xj - xi) * (py - yi) / (yj - yi) + xi

  /** True iff segment p1-p2 intersects the (closed) rectangle `r`. */
  def segmentIntersectsRect(x1: Double, y1: Double, x2: Double, y2: Double, r: MBR): Boolean = {
    // Trivial accept: an endpoint inside the rect.
    if (r.containsPoint(x1, y1) || r.containsPoint(x2, y2)) return true
    // Trivial reject: segment bbox disjoint from rect.
    if (math.max(x1, x2) < r.xMin || math.min(x1, x2) > r.xMax ||
        math.max(y1, y2) < r.yMin || math.min(y1, y2) > r.yMax) return false
    // Liang-Barsky style clipping test.
    val dx = x2 - x1; val dy = y2 - y1
    var t0 = 0.0; var t1 = 1.0
    var ok = true
    def clip(p: Double, q: Double): Unit = {
      if (ok) {
        if (p == 0.0) { if (q < 0.0) ok = false }
        else {
          val t = q / p
          if (p < 0.0) { if (t > t1) ok = false else if (t > t0) t0 = t }
          else         { if (t < t0) ok = false else if (t < t1) t1 = t }
        }
      }
    }
    clip(-dx, x1 - r.xMin); clip(dx, r.xMax - x1)
    clip(-dy, y1 - r.yMin); clip(dy, r.yMax - y1)
    ok
  }

  /** Proper/touching crossing test between segments a-b and c-d (used only
    * in the SI baseline's parity count; endpoint-degenerate configurations
    * are measure-zero for our float workloads).
    */
  def segmentsCross(ax: Double, ay: Double, bx: Double, by: Double,
                    cx: Double, cy: Double, dx: Double, dy: Double): Boolean = {
    def orient(ox: Double, oy: Double, px: Double, py: Double, qx: Double, qy: Double): Double =
      (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
    val d1 = orient(cx, cy, dx, dy, ax, ay)
    val d2 = orient(cx, cy, dx, dy, bx, by)
    val d3 = orient(ax, ay, bx, by, cx, cy)
    val d4 = orient(ax, ay, bx, by, dx, dy)
    ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
    ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
  }
}
