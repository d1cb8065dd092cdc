package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.util.LongAccumulator
import repro.act.TaggedEntry
import repro.core.{ActIndex, PolygonRef}
import repro.geo.Polygon
import repro.grid.CellId
import repro.metrics.ProbeCounter
import scala.collection.mutable

/** DataFrame-level point-polygon join built on the ACT index
  * (the "per-partition UDF join operator" integration, DESIGN.md §3).
  *
  * The polygon side (static, city-scale) is built into an immutable
  * [[ActIndex]] on the driver and broadcast; the point side streams through
  * `mapPartitions`, each partition probing the shared trie with its own
  * [[ProbeCounter]] — the Spark equivalent of the paper's thread-per-batch
  * probe parallelization (§3.4 "Index Probing").
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
    */
  def joinWithIndex(points: DataFrame, index: ActIndex, exact: Boolean,
                    metrics: Option[Metrics] = None): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(index)
    val m = metrics

    points.select("id", "x", "y").as[(Long, Double, Double)].mapPartitions { it =>
      val idx = bc.value
      val act = idx.act
      val lut = idx.lut
      val polys = idx.polys
      val refs = new Array[Int](math.max(2, polys.length))
      val pc = new ProbeCounter
      var probes = 0L; var trueHits = 0L; var cands = 0L; var pips = 0L
      val out = it.flatMap { case (id, x, y) =>
        probes += 1
        val n = TaggedEntry.refsInto(act.probe(CellId.fromPoint(x, y), pc), lut, refs)
        val res = mutable.ArrayBuffer.empty[(Long, Int)]
        var k = 0
        while (k < n) {
          val ref = refs(k)
          val pid = PolygonRef.polygonId(ref)
          if (PolygonRef.isInterior(ref)) { trueHits += 1; res += ((id, pid)) }
          else if (!exact) { cands += 1; res += ((id, pid)) }
          else {
            pips += 1
            if (polys(pid).contains(x, y, pc)) { cands += 1; res += ((id, pid)) }
          }
          k += 1
        }
        res
      }
      // Flush accumulators when the partition iterator is exhausted.
      new Iterator[(Long, Int)] {
        def hasNext: Boolean = {
          val h = out.hasNext
          if (!h) m.foreach { mm =>
            mm.probes.add(probes); mm.trueHitPairs.add(trueHits)
            mm.candidatePairs.add(cands); mm.pipTests.add(pips)
            probes = 0; trueHits = 0; cands = 0; pips = 0
          }
          h
        }
        def next(): (Long, Int) = out.next()
      }
    }.toDF("point_id", "polygon_id")
  }

  /** Counts per polygon — the aggregation the paper's evaluation computes. */
  def countsPerPolygon(pairs: DataFrame): DataFrame =
    pairs.groupBy("polygon_id").count().withColumnRenamed("count", "cnt")
}
