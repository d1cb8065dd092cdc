package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.spatial.SpatialData

class TablesSpec extends AnyFunSuite {

  test("time measures elapsed seconds") {
    val (r, s) = Tables.time { Thread.sleep(20); 42 }
    assert(r == 42)
    assert(s >= 0.015 && s < 5.0)
  }

  test("medianTime returns the median of repeated runs") {
    var n = 0
    val s = Tables.medianTime(3) { n += 1 }
    assert(n == 3)
    assert(s >= 0.0)
  }

  test("fmt formats with the requested decimals") {
    assert(Tables.fmt(3.14159, 2) == "3.14")
    assert(Tables.fmt(3.14159, 0) == "3")
  }

  test("fmtM converts bytes to MiB") {
    assert(Tables.fmtM(1024L * 1024) == "1.00")
    assert(Tables.fmtM(3L * 1024 * 1024 / 2) == "1.50")
  }

  test("printTable does not throw on ragged-free input") {
    Tables.printTable("t", Seq(Seq("a", "b"), Seq("1", "22"), Seq("333", "4")))
    Tables.printTable("empty", Seq.empty)
  }

  test("hash helpers: u01 stays in [0,1) and streams are independent") {
    for (i <- 0L until 2000L) {
      val u = SpatialData.u01(1L, i, 0)
      assert(u >= 0.0 && u < 1.0)
    }
    val a = (0L until 100L).map(SpatialData.u01(1L, _, 0))
    val b = (0L until 100L).map(SpatialData.u01(1L, _, 1))
    assert(a != b)
  }

  test("gauss produces roughly standard-normal samples") {
    val n = 20000
    val xs = (0L until n.toLong).map(SpatialData.gauss(3L, _, 0))
    val mean = xs.sum / n
    val varc = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(mean) < 0.05, s"mean $mean")
    assert(math.abs(varc - 1.0) < 0.1, s"variance $varc")
  }

  test("points cache returns identical arrays for identical keys") {
    val a = Tables.points(taxi = true, n = 100, seed = 5L)
    val b = Tables.points(taxi = true, n = 100, seed = 5L)
    assert(a eq b)
  }

  test("covering cache memoizes per (dataset, precision)") {
    // Use the smallest dataset to keep this cheap.
    val a = Tables.covering("boroughs", None)
    val b = Tables.covering("boroughs", None)
    assert(a eq b)
    assert(a.sc.cellCount > 0)
  }
}
