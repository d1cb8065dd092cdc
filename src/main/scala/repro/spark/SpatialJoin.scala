package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{coalesce, col, lit}
import org.apache.spark.util.LongAccumulator
import repro.act.TaggedEntry
import repro.core.{ActIndex, PolygonRef, ProbeSide}
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
    * @param trainingPoints leaf cell ids to train the accurate index with
    */
  def join(points: DataFrame, polysDf: DataFrame, exact: Boolean,
           precision: Option[Double] = None,
           trainingPoints: Array[Long] = Array.emptyLongArray,
           metrics: Option[Metrics] = None): DataFrame = {
    val polys = collectPolygons(polysDf)
    val index = ActIndex.build(polys, 8, if (exact) None else precision)
    if (exact && trainingPoints.nonEmpty) index.train(trainingPoints)
    joinWithIndex(points, index, exact, metrics)
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

  /** One partition's `(point_id, polygon_id)` pairs: decodes each row's
    * entry into one reused buffer, emits the row's pairs from it, and adds
    * its counts to the accumulators once, when the rows are exhausted.
    */
  private final class PairIterator(rows: Iterator[PointRow], side: ProbeSide,
                                   exact: Boolean, metrics: Option[Metrics])
      extends Iterator[JoinPair] {
    private val act = side.act
    private val lut = side.lut
    private val polys = side.polys
    private val refs = new Array[Int](math.max(2, polys.length))
    private val pc = new ProbeCounter
    private var probes = 0L; private var trueHits = 0L; private var cands = 0L; private var pips = 0L
    // The current row and its references refs(k until n).
    private var id = 0L; private var x = 0.0; private var y = 0.0
    private var n = 0; private var k = 0
    private var pending = -1 // polygon id of the next pair, -1 if not found yet
    private var flushed = false

    def hasNext: Boolean = pending >= 0 || advance()

    def next(): JoinPair = {
      if (!hasNext) throw new NoSuchElementException("no more pairs")
      val pid = pending
      pending = -1
      JoinPair(id, pid)
    }

    /** Find the next pair, probing rows as needed; false once exhausted. */
    private def advance(): Boolean = {
      while (true) {
        while (k < n) {
          val ref = refs(k)
          k += 1
          val pid = PolygonRef.polygonId(ref)
          if (PolygonRef.isInterior(ref)) { trueHits += 1; pending = pid; return true }
          else if (!exact) { cands += 1; pending = pid; return true }
          else {
            pips += 1
            if (polys(pid).contains(x, y, pc)) { cands += 1; pending = pid; return true }
          }
        }
        if (!rows.hasNext) { flush(); return false }
        val row = rows.next()
        id = row.id; x = row.x; y = row.y
        probes += 1
        n = if (CellId.placeable(x, y))
              TaggedEntry.refsInto(act.probe(CellId.fromPoint(x, y), pc), lut, refs)
            else 0
        k = 0
      }
      false // unreachable
    }

    private def flush(): Unit = if (!flushed) {
      flushed = true
      metrics.foreach { mm =>
        mm.probes.add(probes); mm.trueHitPairs.add(trueHits)
        mm.candidatePairs.add(cands); mm.pipTests.add(pips)
      }
    }
  }

  /** Counts per polygon — the aggregation the paper's evaluation computes. */
  def countsPerPolygon(pairs: DataFrame): DataFrame =
    pairs.groupBy("polygon_id").count().withColumnRenamed("count", "cnt")
}
