package repro.geo

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.grid.CellId
import repro.spatial.SpatialData

/** [[Polygon.relation]] reads the polygon through its y-band edge index
  * ([[EdgeBands]]); it must classify every rectangle exactly as a scan of
  * the whole ring does ([[EdgeBandsSpec.scanRelation]]), on hostile
  * rectangles and polygons, and after Java serialization.
  */
class EdgeBandsSpec extends AnyFunSuite {
  import EdgeBandsSpec._

  /** A star polygon of 3 to 2000 vertices, its radial jitter up to 0.9 (so
    * edges may span many bands). Some are snapped to a power-of-two grid,
    * which makes cell sides pass through vertices and adds horizontal
    * edges and repeated vertices; some are squashed to a tiny or zero
    * height.
    */
  private val polygon: Gen[Polygon] = for {
    n <- Gen.choose(3, 2000)
    cx <- Gen.choose(0.0, Geom.World)
    cy <- Gen.choose(0.0, Geom.World)
    r <- Gen.oneOf(Gen.choose(0.01, 10.0), Gen.choose(10.0, 3000.0))
    jitter <- Gen.choose(0.0, 0.9)
    seed <- Gen.choose(0L, Long.MaxValue)
    snap <- Gen.frequency(3 -> Gen.const(0.0), 1 -> Gen.choose(-4, 8).map(math.pow(2.0, _)))
    squash <- Gen.frequency(6 -> Gen.const(1.0), 1 -> Gen.const(1e-9), 1 -> Gen.const(0.0))
  } yield {
    val star = SpatialData.starPolygon(0, cx, cy, r, n, jitter, seed)
    def snapped(v: Double) = if (snap > 0) math.rint(v / snap) * snap else v
    Polygon(0, star.xs.map(snapped), star.ys.map(y => cy + (snapped(y) - cy) * squash))
  }

  /** A rectangle that stresses the band index on `p`: a quadtree cell at
    * level 0–30 around a vertex; sides through vertex coordinates; top or
    * bottom on a band boundary, or one ulp beside it; or a random, possibly
    * degenerate, rectangle around the MBR.
    */
  private def rect(p: Polygon): Gen[MBR] = {
    val bands = new EdgeBands(p.xs, p.ys, p.mbr)
    val vertex = Gen.choose(0, p.n - 1)
    val boundary = for {
      b <- Gen.choose(0, bands.count)
      y = p.mbr.yMin + b * p.mbr.height / bands.count
      y2 <- Gen.oneOf(y, math.nextUp(y), math.nextDown(y))
    } yield y2
    val xCoord = Gen.oneOf(vertex.map(p.xs), Gen.choose(p.mbr.xMin - 1, p.mbr.xMax + 1))
    val yCoord = Gen.oneOf(vertex.map(p.ys), boundary, Gen.choose(p.mbr.yMin - 1, p.mbr.yMax + 1))
    val ordered = (a: Double, b: Double, c: Double, d: Double) =>
      MBR(math.min(a, b), math.min(c, d), math.max(a, b), math.max(c, d))
    Gen.oneOf(
      for (v <- vertex; lvl <- Gen.choose(0, CellId.MaxLevel))
        yield CellId.bounds(CellId.parentAt(CellId.fromPoint(p.xs(v), p.ys(v)), lvl)),
      for (a <- xCoord; b <- xCoord; c <- yCoord; d <- yCoord) yield ordered(a, b, c, d),
      for (a <- xCoord; c <- yCoord) yield MBR(a, c, a, c),
      Gen.const(p.mbr))
  }

  test("relation equals a scan of the ring on 10 000 hostile polygons, and after serialization") {
    val cases = for (p <- polygon; rs <- Gen.listOfN(24, rect(p))) yield (p, rs)
    val prop = Prop.forAll(cases) { case (p, rs) =>
      val copy = deserialized(p)
      rs.forall(r => p.relation(r) == scanRelation(p, r) && copy.relation(r) == scanRelation(p, r))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10000).withInitialSeed(Seed(14L)), prop)
    assert(res.passed, res.status)
  }

  test("a zero-height polygon files every edge in its one band and classifies like the scan") {
    val p = Polygon(0, Array(1.0, 2.0, 3.0, 4.0), Array(5.0, 5.0, 5.0, 5.0))
    val bands = new EdgeBands(p.xs, p.ys, p.mbr)
    assert(bands.start.toSeq == Seq(0, 4))
    for (r <- Seq(MBR(0, 4, 10, 6), MBR(2.5, 5, 2.5, 5), MBR(0, 6, 10, 7), MBR(0, 0, 0.5, 10)))
      assert(p.relation(r) == scanRelation(p, r), r)
  }

  test("long edges halve the bands, so the filings stay linear in n; the datasets keep max(1, n/2)") {
    val p = SpatialData.starPolygon(0, 4096, 4096, 2000, 2000, 0.5, 3L)
    val bands = new EdgeBands(p.xs, p.ys, p.mbr)
    assert(bands.count < p.n / 2, "this star's long edges should have halved the bands")
    assert(bands.start(bands.count) <= EdgeBands.MaxFilings * p.n)
    for (name <- SpatialData.DatasetNames; q <- SpatialData.dataset(name))
      assert(new EdgeBands(q.xs, q.ys, q.mbr).count == math.max(1, q.n / 2), s"$name polygon ${q.id}")
  }

  test("the band index is never serialized: a polygon serializes alike before and after classifying") {
    val p = SpatialData.boroughs()(0)
    val before = bytes(p)
    assert(p.relation(p.mbr) == CellRelation.Boundary)
    assert(java.util.Arrays.equals(bytes(p), before))
  }

  for (name <- SpatialData.DatasetNames)
    test(s"relation equals a scan of the ring on $name, for cells at every third level around each vertex") {
      for (p <- SpatialData.dataset(name); v <- 0 until p.n; lvl <- 0 to CellId.MaxLevel by 3) {
        val r = CellId.bounds(CellId.parentAt(CellId.fromPoint(p.xs(v), p.ys(v)), lvl))
        assert(p.relation(r) == scanRelation(p, r), s"polygon ${p.id}, vertex $v, level $lvl")
      }
    }
}

object EdgeBandsSpec {

  /** [[Polygon.relation]] without the band index: every edge is tested
    * against `r`, and the centre's parity walks the whole ring. The O(n)
    * reference the banded classification must equal.
    */
  def scanRelation(p: Polygon, r: MBR): CellRelation = {
    if (!p.mbr.intersects(r)) return CellRelation.Outside
    var j = p.n - 1
    for (i <- 0 until p.n) {
      if (Polygon.segmentIntersectsRect(p.xs(j), p.ys(j), p.xs(i), p.ys(i), r)) return CellRelation.Boundary
      j = i
    }
    val cx = r.centerX; val cy = r.centerY
    if (!p.mbr.containsPoint(cx, cy)) return CellRelation.Outside
    var inside = false
    j = p.n - 1
    for (i <- 0 until p.n) {
      val xi = p.xs(i); val yi = p.ys(i); val xj = p.xs(j); val yj = p.ys(j)
      if ((yi > cy) != (yj > cy) && cx < (xj - xi) * (cy - yi) / (yj - yi) + xi) inside = !inside
      j = i
    }
    if (inside) CellRelation.Inside else CellRelation.Outside
  }

  /** `p` serialized by Java serialization. */
  def bytes(p: Polygon): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(buf)
    out.writeObject(p)
    out.close()
    buf.toByteArray
  }

  /** `p` after a round trip through Java serialization. */
  def deserialized(p: Polygon): Polygon =
    new ObjectInputStream(new ByteArrayInputStream(bytes(p))).readObject().asInstanceOf[Polygon]
}
