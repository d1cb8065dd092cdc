package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import repro.metrics.ProbeCounter

class GeomSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(2)

  private val square = Polygon(0, Array(1.0, 3.0, 3.0, 1.0), Array(1.0, 1.0, 3.0, 3.0))
  private val triangle = Polygon(1, Array(0.0, 4.0, 2.0), Array(0.0, 0.0, 4.0))
  // Concave "C" shape
  private val cShape = Polygon(2,
    Array(0.0, 4.0, 4.0, 1.0, 1.0, 4.0, 4.0, 0.0),
    Array(0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 4.0, 4.0))

  test("MBR of a square polygon") {
    assert(square.mbr == MBR(1.0, 1.0, 3.0, 3.0))
  }

  test("PIP: center of square is inside") { assert(square.contains(2.0, 2.0)) }
  test("PIP: outside the square") { assert(!square.contains(0.5, 2.0)) }
  test("PIP: outside above") { assert(!square.contains(2.0, 3.5)) }
  test("PIP: edge midpoints follow the half-open rule, bottom and left in, top and right out") {
    assert(square.contains(2.0, 1.0) && square.contains(1.0, 2.0))
    assert(!square.contains(2.0, 3.0) && !square.contains(3.0, 2.0))
  }
  test("PIP: triangle interior") { assert(triangle.contains(2.0, 1.0)) }
  test("PIP: triangle exterior near vertex") { assert(!triangle.contains(3.9, 3.9)) }
  test("PIP: concave notch of the C is outside") { assert(!cShape.contains(2.5, 2.0)) }
  test("PIP: arms of the C are inside") {
    assert(cShape.contains(2.0, 0.5))
    assert(cShape.contains(2.0, 3.5))
    assert(cShape.contains(0.5, 2.0))
  }

  test("PIP counts edge tests") {
    Polygon.resetEdgeTests()
    square.contains(2.0, 2.0)
    assert(Polygon.edgeTests == 4)
    triangle.contains(2.0, 1.0)
    assert(Polygon.edgeTests == 7)
  }

  test("PIP with a caller-owned counter counts there and not in the shared counter") {
    Polygon.resetEdgeTests()
    val m = new ProbeCounter
    assert(square.contains(2.0, 2.0, m) == square.contains(2.0, 2.0))
    triangle.contains(2.0, 1.0, m)
    assert(m.edges == 7)
    assert(Polygon.edgeTests == 4)
    Polygon.record(m)
    assert(Polygon.edgeTests == 11)
  }

  test("PIP with MBR miss does not count edge tests") {
    Polygon.resetEdgeTests()
    square.contains(10.0, 10.0)
    assert(Polygon.edgeTests == 0)
  }

  test("PIP agrees with java.awt reference on random polygons and points") {
    for (seed <- 1 to 20) {
      val r = new scala.util.Random(seed)
      val n = 5 + r.nextInt(12)
      val xs = new Array[Double](n)
      val ys = new Array[Double](n)
      for (k <- 0 until n) {
        val ang = 2 * math.Pi * (k + 0.4 * r.nextDouble()) / n
        val rad = 1.0 + 2.0 * r.nextDouble()
        xs(k) = 5 + rad * math.cos(ang)
        ys(k) = 5 + rad * math.sin(ang)
      }
      val poly = Polygon(seed, xs, ys)
      val awt = new java.awt.geom.Path2D.Double()
      awt.moveTo(xs(0), ys(0))
      for (k <- 1 until n) awt.lineTo(xs(k), ys(k))
      awt.closePath()
      for (_ <- 1 to 200) {
        val px = r.nextDouble() * 10
        val py = r.nextDouble() * 10
        assert(poly.contains(px, py) == awt.contains(px, py),
          s"seed=$seed point=($px,$py)")
      }
    }
  }

  test("segmentIntersectsRect: crossing, inside, outside, grazing") {
    val r = MBR(1, 1, 3, 3)
    assert(Polygon.segmentIntersectsRect(0, 2, 4, 2, r))   // crosses through
    assert(Polygon.segmentIntersectsRect(1.5, 1.5, 2.5, 2.5, r)) // fully inside
    assert(!Polygon.segmentIntersectsRect(0, 0, 0.5, 4, r)) // left of rect
    assert(!Polygon.segmentIntersectsRect(0, 4.5, 4, 4.5, r)) // above rect
    assert(Polygon.segmentIntersectsRect(0, 0, 4, 4, r))   // diagonal through
    assert(!Polygon.segmentIntersectsRect(0, 7, 7, 0, r))  // diagonal past the far corner
  }

  test("segmentsCross: basic cases") {
    assert(Polygon.segmentsCross(0, 0, 2, 2, 0, 2, 2, 0))
    assert(!Polygon.segmentsCross(0, 0, 1, 1, 2, 2, 3, 3))
    assert(!Polygon.segmentsCross(0, 0, 1, 0, 0, 1, 1, 1))
  }

  test("relation: cell inside polygon") {
    assert(square.relation(MBR(1.5, 1.5, 2.5, 2.5)) == CellRelation.Inside)
  }
  test("relation: cell overlapping boundary") {
    assert(square.relation(MBR(0.5, 1.5, 1.5, 2.5)) == CellRelation.Boundary)
  }
  test("relation: cell outside") {
    assert(square.relation(MBR(5, 5, 6, 6)) == CellRelation.Outside)
  }
  test("relation: cell containing the whole polygon is Boundary") {
    assert(square.relation(MBR(0, 0, 10, 10)) == CellRelation.Boundary)
  }
  test("relation: concave notch cell is Outside") {
    assert(cShape.relation(MBR(2.0, 1.7, 3.0, 2.3)) == CellRelation.Outside)
  }

  test("relation Inside implies all sampled points inside") {
    for (_ <- 1 to 50) {
      val cx = rnd.nextDouble() * 4
      val cy = rnd.nextDouble() * 4
      val s = 0.1 + rnd.nextDouble() * 0.5
      val cell = MBR(cx, cy, cx + s, cy + s)
      cShape.relation(cell) match {
        case CellRelation.Inside =>
          for (_ <- 1 to 20)
            assert(cShape.contains(cell.xMin + rnd.nextDouble() * s, cell.yMin + rnd.nextDouble() * s))
        case CellRelation.Outside =>
          for (_ <- 1 to 20)
            assert(!cShape.contains(cell.xMin + rnd.nextDouble() * s, cell.yMin + rnd.nextDouble() * s))
        case CellRelation.Boundary => () // mixed allowed
      }
    }
  }

  test("MBR union and intersects") {
    val a = MBR(0, 0, 2, 2)
    val b = MBR(1, 1, 3, 3)
    val c = MBR(5, 5, 6, 6)
    assert(a.intersects(b) && b.intersects(a))
    assert(!a.intersects(c))
    assert(a.union(b) == MBR(0, 0, 3, 3))
    assert(a.union(c).contains(a) && a.union(c).contains(c))
  }

  test("MBR diagonal") {
    assert(math.abs(MBR(0, 0, 3, 4).diagonal - 5.0) < 1e-12)
  }

  test("polygon requires at least 3 vertices") {
    intercept[IllegalArgumentException](Polygon(9, Array(0.0, 1.0), Array(0.0, 1.0)))
  }
}
