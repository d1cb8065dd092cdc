package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.{Oracle, SparkSpec}
import repro.act.EntryRefs
import repro.core.{ActIndex, Join, ProbeSide, SuperCovering}
import repro.geo.{Geom, Polygon}
import repro.grid.CellId
import repro.metrics.ProbeCounter
import repro.spatial.SpatialData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

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

  /** Pairs of a join, sorted, duplicates kept. */
  private def pairList(df: DataFrame): Seq[(Long, Int)] =
    df.collect().map(r => (r.getLong(0), r.getInt(1))).toSeq.sorted

  test("a point the grid cannot place joins no polygon, in both modes") {
    val w = Geom.World
    def square(id: Int, x0: Double, y0: Double, side: Double) =
      Polygon(id, Array(x0, x0 + side, x0 + side, x0), Array(y0, y0, y0 + side, y0 + side))
    // One square on the origin corner, one on the far corner of the world.
    val corners = Array(square(0, 0.0, 0.0, 1000.0), square(1, w - 1000.0, w - 1000.0, 1000.0))
    val placeable = Seq(
      (500.0, 500.0), (100.0, 900.0), (w - 500.0, w - 400.0), (4000.0, 4000.0),
      (2000.0, 100.0), (0.0, 4000.0), (w, 3000.0), (3000.0, w))
    val unplaceable = Seq(
      (Double.NaN, Double.NaN), (Double.NaN, 500.0), (500.0, Double.NaN),
      (-500.0, 500.0), (500.0, -0.5), (w + 300.0, w - 500.0), (w - 500.0, w + 1e-9),
      (Double.NegativeInfinity, 10.0), (Double.PositiveInfinity, w - 10.0))
    val nulls: Seq[(java.lang.Double, java.lang.Double)] =
      Seq((null, null), (null, 500.0), (w - 500.0, null))
    val rows = placeable.map { case (x, y) => (x: java.lang.Double, y: java.lang.Double) } ++
      unplaceable.map { case (x, y) => (x: java.lang.Double, y: java.lang.Double) } ++ nulls
    val schema = StructType(Seq(StructField("id", LongType, nullable = false),
      StructField("x", DoubleType, nullable = true), StructField("y", DoubleType, nullable = true)))
    val points = spark.createDataFrame(
      rows.zipWithIndex.map { case ((x, y), i) => Row(i.toLong, x, y) }.asJava, schema)

    val expected = Join.naivePairs(placeable.map(_._1).toArray, placeable.map(_._2).toArray, corners)
      .map { case (i, p) => (i.toLong, p) }.sorted
    assert(expected.map(_._2).distinct.sorted == Seq(0, 1), "both corner squares hold points")
    for (exact <- Seq(true, false)) {
      val m = SpatialJoin.newMetrics(spark)
      val got = pairList(SpatialJoin.join(points, SpatialData.polygonsDf(spark, corners), exact,
        precision = Some(4.0), metrics = Some(m)))
      assert(got == expected, s"exact=$exact")
      assert(m.probes.value == rows.size, s"exact=$exact: every row is probed")
    }
  }

  /** The points `xs`/`ys` as a DataFrame of hand-laid partitions: some
    * empty, and some ending on a row whose entry holds three or more
    * references (`many`) or on a miss (`misses`).
    */
  private def partitionEdges(xs: Array[Double], ys: Array[Double],
                             many: Seq[Int], misses: Seq[Int]): (DataFrame, Seq[Int]) = {
    val reserved = Set(many(0), many(1), many(2), misses(0), misses(1), misses(2))
    val rest = xs.indices.filterNot(reserved)
    val parts = Seq.newBuilder[Seq[Int]]
    parts ++= Seq(Seq.empty, Seq(many(0)), Seq(misses(0)), Seq.empty, Seq.empty)
    parts += rest.take(13) :+ many(1)
    parts += rest.slice(13, 42) :+ misses(1)
    var from = 42
    var size = 1
    while (from < rest.size) {
      parts += rest.slice(from, from + size)
      parts += Seq.empty
      from += size
      size = size * 3 + 1
    }
    parts += Seq(many(2), misses(2))
    val layout = parts.result()
    assert(layout.flatten.sorted == xs.indices)
    val rows = layout.map(_.map(i => (i.toLong, xs(i), ys(i))))
    val rdd = spark.sparkContext.parallelize(rows, rows.size).flatMap(identity)
    import spark.implicits._
    (rdd.toDF("id", "x", "y"), layout.map(_.size))
  }

  test("Spark and the kernels agree on one index, exact and approximate") {
    // Wide overlap, so that some cells reference three or more polygons.
    val overlapping = SpatialData.polygonGrid(4, 12, 0.2, 0.6, seed = 1500L)
    val (xs, ys, leafIds) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
    for (exact <- Seq(true, false)) {
      val index = ActIndex.build(overlapping, 8, if (exact) None else Some(4.0))
      val nRefs = leafIds.map(l => EntryRefs(index.act.probe(l), index.lut).size)
      val many = nRefs.indices.filter(nRefs(_) >= 3)
      val misses = nRefs.indices.filter(nRefs(_) == 0)
      assert(many.size >= 3 && misses.size >= 3, s"exact=$exact: ${many.size} many, ${misses.size} misses")
      val (handLaid, sizes) = partitionEdges(xs, ys, many, misses)
      assert(handLaid.rdd.glom().map(_.length).collect().toSeq == sizes)

      val counts = new Array[Long](overlapping.length)
      val st =
        if (exact) Join.exactCounts(index.act, index.lut, xs, ys, leafIds, overlapping, counts)
        else Join.approximateCounts(index.act, index.lut, leafIds, counts)
      for ((points, layout) <- Seq((pointsDf, "default"), (handLaid, "hand-laid"))) {
        val what = s"exact=$exact, $layout partitions"
        val m = SpatialJoin.newMetrics(spark)
        val pairs = pairList(SpatialJoin.joinWithIndex(points, index, exact, Some(m)))
        val got = new Array[Long](overlapping.length)
        pairs.foreach { case (_, pid) => got(pid) += 1 }

        assert(got.toSeq == counts.toSeq, s"$what: pairs per polygon")
        assert(pairs.distinct.size == pairs.size, s"$what: a pair is emitted twice")
        assert(pairs.map(_._1).distinct.size == st.matchedPoints, s"$what: matched points")
        assert(st.points == nPts && m.probes.value == st.points, s"$what: probes")
        assert(m.trueHitPairs.value == st.trueHitPairs, s"$what: true-hit pairs")
        assert(m.candidatePairs.value == st.candidatePairs, s"$what: candidate pairs")
        assert(m.pipTests.value == st.pipTests, s"$what: PIP tests")
      }
    }
  }

  /** Java serialization of `o`, and the class of every object it writes. */
  private def serialized(o: AnyRef): (Array[Byte], Set[String]) = {
    val bytes = new ByteArrayOutputStream
    val classes = mutable.Set.empty[String]
    val out = new ObjectOutputStream(bytes) {
      enableReplaceObject(true)
      override def replaceObject(obj: AnyRef): AnyRef = { classes += obj.getClass.getName; obj }
    }
    out.writeObject(o)
    out.close()
    (bytes.toByteArray, classes.toSet)
  }

  test("the broadcast value holds only what probing reads") {
    val index = ActIndex.build(polys, 8, Some(4.0))
    val side = index.probeSide
    assert(serialized(index)._2.contains(classOf[SuperCovering].getName), "the walk sees the super covering")
    val (bytes, classes) = serialized(side)
    assert(!classes.contains(classOf[SuperCovering].getName))
    assert(!classes.contains(classOf[ActIndex].getName))
    val actBytes = serialized(side.act)._1.length
    val parts = actBytes + serialized(side.lut)._1.length + serialized(side.polys)._1.length
    assert(bytes.length >= actBytes && bytes.length <= parts + 1024,
      s"${bytes.length} bytes against parts of $parts")

    val copy = new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[ProbeSide]
    def vertices(ps: Array[Polygon]) = ps.toSeq.map(p => (p.id, p.xs.toSeq, p.ys.toSeq))
    assert(vertices(copy.polys) == vertices(side.polys) && copy.act.nodeCount == side.act.nodeCount)
    // The first, a middle and the last leaf of every cell, and the leaves just outside it.
    val leaves = mutable.ArrayBuilder.make[Long]
    index.sc.foreachCell { (cell, _) =>
      leaves += CellId.rangeMin(cell); leaves += cell - 1; leaves += CellId.rangeMax(cell)
      leaves += CellId.rangeMin(cell) - 2; leaves += CellId.rangeMax(cell) + 2
    }
    val pc = new ProbeCounter
    val inWorld = leaves.result().filter(l => l > 0 && l < (1L << 61))
    assert(inWorld.forall(l => CellId.level(l) == CellId.MaxLevel))
    inWorld.foreach { leaf =>
      val e = side.act.probe(leaf, pc)
      assert(copy.act.probe(leaf, pc) == e, s"leaf $leaf")
      assert(EntryRefs(e, copy.lut) == EntryRefs(e, side.lut), s"leaf $leaf")
    }
  }

  test("each join broadcasts the index as trained so far") {
    val index = ActIndex.build(polys, 8, None)
    val (_, _, trainIds) = SpatialData.pointArrays(20000, taxi = true, seed = 2009L)
    val m1 = SpatialJoin.newMetrics(spark)
    val before = pairList(SpatialJoin.joinWithIndex(pointsDf, index, exact = true, Some(m1)))
    assert(index.train(trainIds) > 0)
    val m2 = SpatialJoin.newMetrics(spark)
    val after = pairList(SpatialJoin.joinWithIndex(pointsDf, index, exact = true, Some(m2)))
    assert(after == before, "training must not change exact results")
    assert(m2.pipTests.value < m1.pipTests.value,
      s"trained PIP ${m2.pipTests.value} should be < untrained ${m1.pipTests.value}")
  }
}
