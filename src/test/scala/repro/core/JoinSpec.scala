package repro.core

import java.util.concurrent.{Callable, CyclicBarrier, Executors}
import org.scalatest.funsuite.AnyFunSuite
import repro.act.{EntryRefs, TaggedEntry}
import repro.geo.Polygon
import repro.index.{BTreeCellIndex, SortedCellVector}
import repro.spatial.SpatialData

class JoinSpec extends AnyFunSuite {
  private val polys = SpatialData.polygonGrid(4, 14, 0.2, 0.15, seed = 500L)
  private val nPts = 20000
  private val (xs, ys, leafIds) = SpatialData.pointArrays(nPts, taxi = true, seed = 600L)

  private lazy val naive = {
    val counts = new Array[Long](polys.length)
    val st = Join.naiveCounts(xs, ys, polys, counts)
    (counts, st)
  }

  test("exact join over ACT equals the naive join") {
    val idx = ActIndex.build(polys, 8, None)
    val counts = new Array[Long](polys.length)
    val st = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
    assert(counts.toSeq == naive._1.toSeq)
    assert(st.matchedPoints == naive._2.matchedPoints)
  }

  for (bits <- Seq(2, 4)) test(s"exact join is fanout-independent (ACT bits=$bits)") {
    val idx = ActIndex.build(polys, bits, None)
    val counts = new Array[Long](polys.length)
    Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
    assert(counts.toSeq == naive._1.toSeq)
  }

  test("exact join over LB and GBT equals the naive join") {
    val idx = ActIndex.build(polys, 8, None)
    val (ids, entries) = ActIndex.entries(idx.sc, idx.lut)
    for (s <- Seq(SortedCellVector(ids, entries), BTreeCellIndex(ids, entries))) {
      val counts = new Array[Long](polys.length)
      Join.exactCounts(s, idx.lut, xs, ys, leafIds, polys, counts)
      assert(counts.toSeq == naive._1.toSeq)
    }
  }

  test("exact join does fewer PIP tests than the naive MBR-filter join") {
    val idx = ActIndex.build(polys, 8, None)
    val counts = new Array[Long](polys.length)
    val st = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
    assert(st.pipTests < naive._2.pipTests,
      s"ACT ${st.pipTests} vs naive ${naive._2.pipTests}")
  }

  test("true hits identified in the filter phase are real hits") {
    val idx = ActIndex.build(polys, 8, None)
    var checked = 0
    for (i <- 0 until nPts if checked < 3000) {
      val e = idx.act.probe(leafIds(i))
      if (TaggedEntry.tag(e) != 0) {
        val refs = EntryRefs(e, idx.lut)
        refs.trueHits.foreach { r =>
          checked += 1
          assert(polys(PolygonRef.polygonId(r)).contains(xs(i), ys(i)))
        }
      }
    }
    assert(checked > 100)
  }

  for (precision <- Seq(60.0, 15.0, 4.0)) {
    test(s"approximate join (${precision}m) only adds false positives within the bound") {
      val idx = ActIndex.build(polys, 8, Some(precision))
      val counts = new Array[Long](polys.length)
      val st = Join.approximateCounts(idx.act, idx.lut, leafIds, counts)
      assert(st.points == nPts)
      // Per-polygon count can only exceed the exact count, never undercount.
      for (p <- polys.indices)
        assert(counts(p) >= naive._1(p), s"approximate join lost hits for polygon $p")
      // Every false positive lies within `precision` of its polygon: verify
      // via a distance check on a sample of candidate-matched points.
      var fpChecked = 0
      for (i <- 0 until nPts if fpChecked < 1000) {
        val e = idx.act.probe(leafIds(i))
        if (TaggedEntry.tag(e) != 0) {
          val refs = EntryRefs(e, idx.lut)
          refs.candidates.foreach { r =>
            val poly = polys(PolygonRef.polygonId(r))
            if (!poly.contains(xs(i), ys(i))) {
              fpChecked += 1
              val d = distanceToPolygon(poly, xs(i), ys(i))
              assert(d <= precision + 1e-6,
                s"false positive at distance $d > $precision")
            }
          }
        }
      }
    }
  }

  test("finer precision yields fewer approximate false positives") {
    def fp(precision: Double): Long = {
      val idx = ActIndex.build(polys, 8, Some(precision))
      val counts = new Array[Long](polys.length)
      Join.approximateCounts(idx.act, idx.lut, leafIds, counts)
      counts.sum - naive._1.sum
    }
    val fp60 = fp(60.0)
    val fp4 = fp(4.0)
    assert(fp4 <= fp60, s"4m FP=$fp4 should be <= 60m FP=$fp60")
  }

  test("naive pair materialization matches naive counts") {
    val pairs = Join.naivePairs(xs.take(2000), ys.take(2000), polys)
    val counts = new Array[Long](polys.length)
    Join.naiveCounts(xs.take(2000), ys.take(2000), polys, counts)
    val byPoly = pairs.groupBy(_._2).view.mapValues(_.size.toLong).toMap
    for (p <- polys.indices)
      assert(byPoly.getOrElse(p, 0L) == counts(p))
  }

  /** Wide overlap, so that cells hold candidate refs in inline entries and
    * in lookup-table entries alike.
    */
  private lazy val overlapping = SpatialData.polygonGrid(4, 12, 0.2, 0.6, seed = 1500L)

  test("approximate and exact joins count the same solely-true-hit points") {
    val idx = ActIndex.build(overlapping, 8, None)
    val entries = leafIds.map(l => idx.act.probe(l))
    def holdsCandidate(e: Long) = EntryRefs(e, idx.lut).candidates.nonEmpty
    assert(entries.exists(e => TaggedEntry.tag(e) == TaggedEntry.TagInline && holdsCandidate(e)),
      "no inline entry holds a candidate ref")
    assert(entries.exists(e => TaggedEntry.tag(e) == TaggedEntry.TagOffset && holdsCandidate(e)),
      "no lookup-table entry holds a candidate ref")

    val approx = Join.approximateCounts(idx.act, idx.lut, leafIds, new Array[Long](overlapping.length))
    val exact = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, overlapping,
      new Array[Long](overlapping.length))
    assert(approx.sthPoints == exact.sthPoints)
    assert(approx.sthPoints == entries.count(e => !holdsCandidate(e)))
    assert(approx.sthPoints > 0 && approx.sthPoints < nPts, s"sthPoints ${approx.sthPoints}")
    // One rule in both modes: true hits join untested, and every candidate
    // the approximate join emits is one PIP test of the exact join.
    assert(approx.points == nPts && exact.points == nPts)
    assert(approx.trueHitPairs == exact.trueHitPairs)
    assert(approx.candidatePairs == exact.pipTests)
    assert(approx.matchedPoints == entries.count(_ != TaggedEntry.NoHit))
    assert(exact.trueHitPairs + exact.candidatePairs == Join.naivePairs(xs, ys, overlapping).size)
  }

  test("both kernels on all cores over one shared ACT4 index equal one thread") {
    val idx = ActIndex.build(overlapping, 8, None)
    val n = overlapping.length
    val (pxs, pys, pids) = SpatialData.pointArrays(200000, taxi = true, seed = 610L)
    /** Counts per polygon of both kernels, and their stats. */
    def both(px: Array[Double], py: Array[Double], ids: Array[Long]): (Seq[Long], Seq[JoinStats]) = {
      val approx = new Array[Long](n)
      val exact = new Array[Long](n)
      val a = Join.approximateCounts(idx.act, idx.lut, ids, approx)
      val e = Join.exactCounts(idx.act, idx.lut, px, py, ids, overlapping, exact)
      (approx.toSeq ++ exact.toSeq, Seq(a, e))
    }
    def fields(st: JoinStats) =
      Seq(st.points, st.matchedPoints, st.trueHitPairs, st.candidatePairs, st.pipTests, st.sthPoints)
    def sum(sts: Seq[JoinStats]) = sts.map(fields).transpose.map(_.sum)

    idx.act.resetMetrics()
    Polygon.resetEdgeTests()
    val (counts1, stats1) = both(pxs, pys, pids)
    val accesses1 = idx.act.nodeAccesses
    val edges1 = Polygon.edgeTests
    assert(accesses1 > 0 && edges1 > 0)

    val threads = math.max(4, Runtime.getRuntime.availableProcessors)
    val pool = Executors.newFixedThreadPool(threads)
    val start = new CyclicBarrier(threads)
    idx.act.resetMetrics()
    Polygon.resetEdgeTests()
    val results = try {
      (0 until threads).map { t =>
        val from = pids.length * t / threads
        val until = pids.length * (t + 1) / threads
        pool.submit(new Callable[(Seq[Long], Seq[JoinStats])] {
          def call() = {
            start.await()
            both(pxs.slice(from, until), pys.slice(from, until), pids.slice(from, until))
          }
        })
      }.map(_.get())
    } finally pool.shutdown()

    val merged = results.map(_._1).transpose.map(_.sum)
    assert(merged == counts1, "merged counts per polygon")
    for (k <- stats1.indices)
      assert(sum(results.map(_._2(k))) == fields(stats1(k)), s"summed JoinStats of kernel $k")
    assert(idx.act.nodeAccesses == accesses1, "node accesses lost or gained")
    assert(Polygon.edgeTests == edges1, "PIP edges lost or gained")
  }

  test("JoinStats sthPercent") {
    val st = new JoinStats
    st.points = 200
    st.sthPoints = 150
    assert(math.abs(st.sthPercent - 75.0) < 1e-9)
  }

  /** Distance from a point to a polygon boundary (0 if inside). */
  private def distanceToPolygon(poly: repro.geo.Polygon, px: Double, py: Double): Double = {
    if (poly.contains(px, py)) return 0.0
    var best = Double.MaxValue
    var i = 0
    var j = poly.n - 1
    while (i < poly.n) {
      best = math.min(best, distToSegment(px, py, poly.xs(j), poly.ys(j), poly.xs(i), poly.ys(i)))
      j = i
      i += 1
    }
    best
  }

  private def distToSegment(px: Double, py: Double, ax: Double, ay: Double,
                            bx: Double, by: Double): Double = {
    val dx = bx - ax; val dy = by - ay
    val len2 = dx * dx + dy * dy
    val t = if (len2 == 0) 0.0 else math.max(0.0, math.min(1.0, ((px - ax) * dx + (py - ay) * dy) / len2))
    math.hypot(px - (ax + t * dx), py - (ay + t * dy))
  }
}
