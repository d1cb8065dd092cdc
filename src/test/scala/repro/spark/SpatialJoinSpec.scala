package repro.spark

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.act.TaggedEntry
import repro.core.{ActIndex, Join}
import repro.spatial.SpatialData

/** End-to-end DataFrame join checked against the DuckDB oracle: the naive
  * PIP join (trusted, tested in JoinSpec) provides the expected pair table;
  * DuckDB aggregates it and the result is diffed against the Spark-side
  * aggregation of the ACT join output.
  */
class SpatialJoinSpec extends AnyFunSuite with SparkSpec {

  private val polys = SpatialData.polygonGrid(4, 12, 0.2, 0.15, seed = 1100L)
  private val nPts = 5000
  private lazy val polysDf = SpatialData.polygonsDf(spark, polys)
  private lazy val pointsDf = SpatialData.pointsDf(spark, nPts, taxi = true, seed = 1200L).cache()

  private lazy val naivePairsDf = {
    val (xs, ys, _) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
    val pairs = Join.naivePairs(xs, ys, polys).map { case (i, p) => (i.toLong, p) }
    import spark.implicits._
    pairs.toDF("point_id", "polygon_id")
  }

  test("exact Spark join matches the naive join, verified through DuckDB") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val agg = result.groupBy("polygon_id").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
      "pairs" -> naivePairsDf)
  }

  test("exact Spark join emits exactly the naive pair set") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val got = result.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val exp = naivePairsDf.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(got == exp)
  }

  test("approximate Spark join is a superset with bounded extras") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = false, precision = Some(4.0))
    val got = result.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val exp = naivePairsDf.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(exp.subsetOf(got), "approximate join must not lose true pairs")
    // With a 4m bound on ~120m-wide polygons, extras are rare.
    assert(got.size - exp.size <= math.max(10, exp.size / 20),
      s"too many false positives: ${got.size - exp.size}")
  }

  test("metrics accumulators reflect the probe work") {
    val m = SpatialJoin.newMetrics(spark)
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true, metrics = Some(m))
    result.count() // force
    assert(m.probes.value == nPts)
    assert(m.trueHitPairs.value > 0)
    assert(m.pipTests.value > 0)
    // True hit filtering: far fewer PIP tests than points.
    assert(m.pipTests.value < nPts)
  }

  test("training reduces Spark-side PIP tests, result unchanged") {
    val (_, _, trainIds) = SpatialData.pointArrays(20000, taxi = true, seed = 2009L)

    val m1 = SpatialJoin.newMetrics(spark)
    val untrained = SpatialJoin.join(pointsDf, polysDf, exact = true, metrics = Some(m1))
    val set1 = untrained.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val pip1 = m1.pipTests.value

    val m2 = SpatialJoin.newMetrics(spark)
    val trained = SpatialJoin.join(pointsDf, polysDf, exact = true,
      trainingPoints = trainIds, metrics = Some(m2))
    val set2 = trained.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val pip2 = m2.pipTests.value

    assert(set1 == set2, "training must not change exact results")
    assert(pip2 < pip1, s"trained PIP $pip2 should be < untrained $pip1")
  }

  test("joinWithIndex reuses a pre-built index across point batches") {
    val index = ActIndex.build(polys, 8, None)
    val batch1 = SpatialData.pointsDf(spark, 1000, taxi = true, seed = 1L)
    val batch2 = SpatialData.pointsDf(spark, 1000, taxi = false, seed = 2L)
    val r1 = SpatialJoin.joinWithIndex(batch1, index, exact = true).count()
    val r2 = SpatialJoin.joinWithIndex(batch2, index, exact = true).count()
    assert(r1 > 0 && r2 > 0)
  }

  test("countsPerPolygon aggregates pairs") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val counts = SpatialJoin.countsPerPolygon(result)
    val total = counts.agg(sum("cnt")).collect()(0).getLong(0)
    assert(total == result.count())
  }

  test("empty point set yields an empty join") {
    val empty = SpatialData.pointsDf(spark, 0, taxi = true)
    assert(SpatialJoin.join(empty, polysDf, exact = true).count() == 0)
  }

  test("polygon ids must equal array positions") {
    val gapped = polys.map(p => p.copy(id = 2 * p.id))
    val err = intercept[IllegalArgumentException] {
      SpatialJoin.join(pointsDf, SpatialData.polygonsDf(spark, gapped), exact = true)
    }
    assert(err.getMessage.contains("polygon ids must equal array positions"), err.getMessage)
    intercept[IllegalArgumentException](ActIndex.build(polys.reverse, 8, None))
    // Dense ids join whatever the row order of the polygons table.
    val result = SpatialJoin.join(pointsDf, SpatialData.polygonsDf(spark, polys.reverse), exact = true)
    val got = result.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val exp = naivePairsDf.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(got == exp)
  }

  test("Spark and the kernels agree on one index, exact and approximate") {
    // Wide overlap, so that some cells reference three or more polygons.
    val overlapping = SpatialData.polygonGrid(4, 12, 0.2, 0.6, seed = 1500L)
    val (xs, ys, leafIds) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
    for (exact <- Seq(true, false)) {
      val index = ActIndex.build(overlapping, 8, if (exact) None else Some(4.0))
      val offsets = leafIds.count(l => TaggedEntry.tag(index.act.probe(l)) == TaggedEntry.TagOffset)
      assert(offsets > 0, s"exact=$exact: no probe reached the lookup table")

      val counts = new Array[Long](overlapping.length)
      val st =
        if (exact) Join.exactCounts(index.act, index.lut, xs, ys, leafIds, overlapping, counts)
        else Join.approximateCounts(index.act, index.lut, leafIds, counts)
      val m = SpatialJoin.newMetrics(spark)
      val got = new Array[Long](overlapping.length)
      SpatialJoin.countsPerPolygon(SpatialJoin.joinWithIndex(pointsDf, index, exact, Some(m)))
        .collect().foreach(r => got(r.getInt(0)) = r.getLong(1))

      assert(got.toSeq == counts.toSeq, s"exact=$exact: counts per polygon")
      assert(st.points == nPts && m.probes.value == st.points, s"exact=$exact: probes")
      assert(m.trueHitPairs.value == st.trueHitPairs, s"exact=$exact: true-hit pairs")
      assert(m.candidatePairs.value == st.candidatePairs, s"exact=$exact: candidate pairs")
      assert(m.pipTests.value == st.pipTests, s"exact=$exact: PIP tests")
    }
  }
}
