package repro

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Join
import repro.spatial.SpatialData

/** Sanity checks of the DuckDB oracle itself on spatial tables — the naive
  * join's pair table and a table of polygon attributes — so failures in the
  * spatial suites can be attributed to spatial code.
  */
class OracleSpec extends AnyFunSuite with SparkSpec {

  private val polys = SpatialData.polygonGrid(3, 8, 0.2, 0.15, seed = 1300L)
  private val (xs, ys, _) = SpatialData.pointArrays(2000, taxi = true, seed = 1400L)

  private lazy val pairs = {
    import spark.implicits._
    Join.naivePairs(xs, ys, polys).map { case (i, p) => (i.toLong, p, xs(i)) }
      .toDF("point_id", "polygon_id", "x").cache()
  }

  /** One scalar attribute per polygon: its row in the 3 x 3 grid. */
  private lazy val polygons = {
    import spark.implicits._
    polys.toSeq.map(p => (p.id, p.id / 3)).toDF("pid", "grid_row").cache()
  }

  test("oracle validates a simple aggregation") {
    val agg = pairs.groupBy("polygon_id")
      .agg(count(lit(1)) as "cnt", round(sum("x"), 2) as "sx")
    Oracle.assertEquivalent(agg,
      "SELECT polygon_id, count(*) AS cnt, round(sum(CAST(x AS DOUBLE)), 2) AS sx " +
      "FROM pairs GROUP BY polygon_id",
      "pairs" -> pairs)
  }

  test("oracle validates a join aggregation") {
    val agg = pairs.join(polygons, pairs("polygon_id") === polygons("pid"))
      .groupBy("grid_row").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT grid_row, count(*) AS cnt FROM pairs " +
      "JOIN polygons ON polygon_id = pid GROUP BY grid_row",
      "pairs" -> pairs, "polygons" -> polygons)
  }

  test("oracle catches wrong results") {
    val wrong = pairs.groupBy("polygon_id").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
        "pairs" -> pairs)
    }
  }

  test("oracle catches column mismatches") {
    val agg = pairs.groupBy("polygon_id").agg(count(lit(1)) as "wrong_name")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
        "pairs" -> pairs)
    }
  }
}
