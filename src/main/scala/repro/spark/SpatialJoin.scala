package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{coalesce, col, lit}
import org.apache.spark.util.LongAccumulator
import repro.act.TaggedEntry
import repro.core.{ActIndex, Join, JoinStats, PolygonRef, ProbeSide}
import repro.geo.Polygon
import repro.grid.CellId
import repro.metrics.ProbeCounter

/** A points row as the join reads it. Case classes rather than tuples keep
  * the fields primitive, so Spark's row codecs box nothing.
  */
final case class PointRow(id: Long, x: Double, y: Double)

/** One output row of the join. */
final case class JoinPair(point_id: Long, polygon_id: Int)

/** DataFrame-level point-polygon join built on the ACT index
  * (the "per-partition UDF join operator" integration, DESIGN.md §3).
  *
  * The polygon side (static, city-scale) is built into an [[ActIndex]] on
  * the driver, and each join broadcasts its [[ProbeSide]]: the polygons,
  * the lookup table and the ACT, without the build-time super covering.
  * The point side streams through `mapPartitions`, each partition probing
  * the shared trie with its own [[ProbeCounter]] — the Spark equivalent of
  * the paper's thread-per-batch probe parallelization (§3.4 "Index
  * Probing"). A point outside the world square, or with a NaN or null
  * coordinate, is probed as a miss and joins no polygon.
  */
object SpatialJoin {

  /** Probe-side metrics surfaced through Spark accumulators. */
  final case class Metrics(probes: LongAccumulator, trueHitPairs: LongAccumulator,
                           candidatePairs: LongAccumulator, pipTests: LongAccumulator)

  def newMetrics(spark: SparkSession): Metrics = Metrics(
    spark.sparkContext.longAccumulator("probes"),
    spark.sparkContext.longAccumulator("trueHitPairs"),
    spark.sparkContext.longAccumulator("candidatePairs"),
    spark.sparkContext.longAccumulator("pipTests"))

  /** Reconstruct driver-side polygons from a `(pid, xs, ys)` DataFrame. */
  def collectPolygons(polysDf: DataFrame): Array[Polygon] = {
    polysDf.select("pid", "xs", "ys").collect().map { row =>
      Polygon(row.getInt(0),
        row.getSeq[Double](1).toArray,
        row.getSeq[Double](2).toArray)
    }.sortBy(_.id)
  }

  /** Join `points (id, x, y)` with `polysDf (pid, xs, ys)`.
    *
    * @param exact      true: PIP-refine candidate hits (accurate join);
    *                   false: emit candidates as hits (approximate join)
    * @param precision  approximate-mode precision bound in metres (§3.2)
    */
  def join(points: DataFrame, polysDf: DataFrame, exact: Boolean,
           precision: Option[Double] = None,
           metrics: Option[Metrics] = None): DataFrame = {
    val polys = collectPolygons(polysDf)
    joinWithIndex(points, ActIndex.build(polys, 8, if (exact) None else precision), exact, metrics)
  }

  /** Join against a pre-built (possibly trained) index — the static-polygon
    * serving path the paper targets (§4: probe phase on a pre-built index).
    * Each call broadcasts the index's current [[ActIndex.probeSide]], so a
    * join after `train` probes the trained trie.
    */
  def joinWithIndex(points: DataFrame, index: ActIndex, exact: Boolean,
                    metrics: Option[Metrics] = None): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(index.probeSide)
    // A null coordinate reads as NaN, which no cell holds; the optimizer
    // drops the coalesce on non-nullable columns.
    val nan = lit(Double.NaN)
    points.select(col("id"), coalesce(col("x"), nan) as "x", coalesce(col("y"), nan) as "y")
      .as[PointRow]
      .mapPartitions(rows => new PairIterator(rows, bc.value, exact, metrics))
      .toDF()
  }

  /** One partition's `(point_id, polygon_id)` pairs. Each row's entry is
    * decoded into one reused buffer, which is then compacted in place to
    * the polygon ids that [[Join.joins]] accepts; the row's pairs are read
    * from it. The partition's [[JoinStats]] go to the accumulators once,
    * when the rows are exhausted.
    */
  private final class PairIterator(rows: Iterator[PointRow], side: ProbeSide,
                                   exact: Boolean, metrics: Option[Metrics])
      extends Iterator[JoinPair] {
    private val buf = new Array[Int](math.max(2, side.polys.length))
    private val st = new JoinStats
    private val pc = new ProbeCounter
    // The current row's id and the polygon ids it joins, buf(k until n).
    private var id = 0L
    private var n = 0; private var k = 0
    private var flushed = false

    def hasNext: Boolean = {
      while (k == n && rows.hasNext) probe(rows.next())
      if (k < n) true else { flush(); false }
    }

    def next(): JoinPair = {
      if (!hasNext) throw new NoSuchElementException("no more pairs")
      k += 1
      JoinPair(id, buf(k - 1))
    }

    private def probe(row: PointRow): Unit = {
      id = row.id; n = 0; k = 0
      st.points += 1
      val found = if (CellId.placeable(row.x, row.y))
                    TaggedEntry.refsInto(side.act.probe(CellId.fromPoint(row.x, row.y), pc), side.lut, buf)
                  else 0
      var j = 0
      while (j < found) {
        val ref = buf(j)
        if (Join.joins(ref, exact, row.x, row.y, side.polys, st, pc)) {
          buf(n) = PolygonRef.polygonId(ref); n += 1
        }
        j += 1
      }
    }

    private def flush(): Unit = if (!flushed) {
      flushed = true
      metrics.foreach { mm =>
        mm.probes.add(st.points); mm.trueHitPairs.add(st.trueHitPairs)
        mm.candidatePairs.add(st.candidatePairs); mm.pipTests.add(st.pipTests)
      }
    }
  }

  /** Counts per polygon — the aggregation the paper's evaluation computes. */
  def countsPerPolygon(pairs: DataFrame): DataFrame =
    pairs.groupBy("polygon_id").count().withColumnRenamed("count", "cnt")
}
