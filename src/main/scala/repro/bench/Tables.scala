package repro.bench

import repro.act.{ACT, LookupTable}
import repro.core._
import repro.geo.Polygon
import repro.grid.CellId
import repro.index._
import repro.spatial.SpatialData
import scala.collection.mutable

/** Shared harness behind the per-table benchmarks (bench/) and the
  * spark-submit jobs (jobs/): dataset registry, timed builds (memoized per
  * JVM so the table suites don't rebuild the same super coverings), probe
  * throughput loops and fixed-width table printing.
  *
  * All measurements mirror the paper's §4 methodology: probe phase only,
  * counting points per polygon from a pre-built index, single-threaded
  * unless stated otherwise.
  */
object Tables {

  /** The paper's precision bounds in metres (Table 1). */
  val Precisions: Seq[Double] = Seq(60.0, 15.0, 4.0)

  /** Points used by throughput benches (paper: 1.23 B; scaled, see DESIGN). */
  val BenchPoints: Int = sys.env.getOrElse("REPRO_BENCH_POINTS", "2000000").toInt

  def time[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Median seconds of `reps` timed runs of `body` (the first run warms the
    * JIT).
    */
  def medianTime(reps: Int = 3)(body: => Unit): Double =
    median((0 until math.max(1, reps)).map(_ => time(body)._2))

  /** Median seconds of `reps` runs of `a` and of `b`, timed in alternation
    * so that drift in the host's speed affects both alike.
    */
  def alternatingMedianTimes(reps: Int)(a: => Unit)(b: => Unit): (Double, Double) = {
    val ts = (0 until math.max(1, reps)).map(_ => (time(a)._2, time(b)._2))
    (median(ts.map(_._1)), median(ts.map(_._2)))
  }

  private def median(ts: Seq[Double]): Double = ts.sorted.apply(ts.size / 2)

  // ---------------------------------------------------------------------
  // Super coverings (Table 1 inputs), memoized per (dataset, precision).
  // ---------------------------------------------------------------------

  final case class BuiltCovering(
      polys: Array[Polygon],
      sc: SuperCovering,
      buildIndividualSec: Double,
      buildSuperSec: Double,
  )

  private val coveringCache = mutable.Map.empty[(String, Option[Double]), BuiltCovering]

  /** Build (or fetch) the super covering of `name` at `precision` metres
    * (None = the paper's default coarse configuration used by the accurate
    * join, §4.2).
    */
  def covering(name: String, precision: Option[Double]): BuiltCovering =
    coveringCache.getOrElseUpdate((name, precision), {
      val polys = SpatialData.dataset(name)
      val ((covs, ints), tInd) = time(SuperCovering.coverings(polys))
      val (sc, tSuper) = time {
        val s = SuperCovering.build(covs, ints)
        precision.foreach(p => SuperCovering.refineToPrecision(s, CellId.levelForPrecision(p), polys))
        s
      }
      BuiltCovering(polys, sc, tInd, tSuper)
    })

  // ---------------------------------------------------------------------
  // Index structures over a super covering (Table 2).
  // ---------------------------------------------------------------------

  final case class BuiltIndexes(
      lut: LookupTable,
      ids: Array[Long],
      entries: Array[Long],
      act1: ACT, act2: ACT, act4: ACT,
      gbt: BTreeCellIndex, lb: SortedCellVector,
      buildSec: Map[String, Double],
  )

  private val indexCache = mutable.Map.empty[(String, Option[Double]), BuiltIndexes]

  def indexes(name: String, precision: Option[Double]): BuiltIndexes =
    indexCache.getOrElseUpdate((name, precision), {
      val bc = covering(name, precision)
      val lut = new LookupTable
      val (ids, entries) = ActIndex.entries(bc.sc, lut)
      val (a1, t1) = time(ACT.build(2, ids, entries))
      val (a2, t2) = time(ACT.build(4, ids, entries))
      val (a4, t4) = time(ACT.build(8, ids, entries))
      val (gbt, tg) = time(BTreeCellIndex(ids, entries))
      val lb = SortedCellVector(ids, entries)
      BuiltIndexes(lut, ids, entries, a1, a2, a4, gbt, lb,
        Map("ACT1" -> t1, "ACT2" -> t2, "ACT4" -> t4, "GBT" -> tg, "LB" -> 0.0))
    })

  def structures(bi: BuiltIndexes): Seq[(String, CellIndex)] = Seq(
    "ACT1" -> bi.act1, "ACT2" -> bi.act2, "ACT4" -> bi.act4,
    "GBT" -> bi.gbt, "LB" -> bi.lb)

  // ---------------------------------------------------------------------
  // Point workloads, memoized.
  // ---------------------------------------------------------------------

  private val pointCache = mutable.Map.empty[(Boolean, Int, Long), (Array[Double], Array[Double], Array[Long])]

  def points(taxi: Boolean, n: Int = BenchPoints, seed: Long = 2016L): (Array[Double], Array[Double], Array[Long]) =
    pointCache.getOrElseUpdate((taxi, n, seed), SpatialData.pointArrays(n, taxi, seed))

  // ---------------------------------------------------------------------
  // Probe throughput (approximate join, counts per polygon — §4.1).
  // ---------------------------------------------------------------------

  /** Single-threaded approximate-join throughput in M points/s. */
  def approxThroughput(index: CellIndex, lut: LookupTable, leafIds: Array[Long],
                       nPolys: Int, reps: Int = 3): Double = {
    val counts = new Array[Long](nPolys)
    val sec = medianTime(reps) {
      java.util.Arrays.fill(counts, 0L)
      Join.approximateCounts(index, lut, leafIds, counts)
    }
    leafIds.length / sec / 1e6
  }

  /** Single-threaded exact-join throughput in M points/s plus stats. */
  def exactThroughput(index: CellIndex, lut: LookupTable,
                      xs: Array[Double], ys: Array[Double], leafIds: Array[Long],
                      polys: Array[Polygon], reps: Int = 3): (Double, JoinStats) = {
    val counts = new Array[Long](polys.length)
    var stats: JoinStats = null
    val sec = medianTime(reps) {
      java.util.Arrays.fill(counts, 0L)
      stats = Join.exactCounts(index, lut, xs, ys, leafIds, polys, counts)
    }
    (leafIds.length / sec / 1e6, stats)
  }

  // ---------------------------------------------------------------------
  // Formatting.
  // ---------------------------------------------------------------------

  /** Print a fixed-width table; first row is the header. */
  def printTable(title: String, rows: Seq[Seq[String]]): Unit = {
    println(s"\n== $title ==")
    if (rows.isEmpty) return
    val widths = rows.map(_.map(_.length)).transpose.map(_.max)
    rows.zipWithIndex.foreach { case (r, i) =>
      println(r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      if (i == 0) println(widths.map("-" * _).mkString("  "))
    }
  }

  def fmt(d: Double, dec: Int = 2): String = s"%.${dec}f".format(d)
  def fmtM(bytes: Long): String = fmt(bytes / 1024.0 / 1024.0, 2)
}
