package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.TableRunners
import repro.spark.SpatialJoin
import repro.spatial.SpatialData

/** spark-submit entrypoints, one per paper table (the table kernels are
  * single-node probe benchmarks, exactly like the paper's evaluation; the
  * Spark-level join is exercised by [[JoinDemo]]).
  *
  * Example:
  * {{{ spark-submit --class repro.jobs.Table1Job target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar }}}
  */
object Table1Job { def main(args: Array[String]): Unit = TableRunners.table1() }
object Table2Job { def main(args: Array[String]): Unit = TableRunners.table2() }
object Table3Job { def main(args: Array[String]): Unit = TableRunners.table3() }
object Table4Job { def main(args: Array[String]): Unit = TableRunners.table4() }
object Table5Job { def main(args: Array[String]): Unit = TableRunners.table5() }
object Table6Job { def main(args: Array[String]): Unit = TableRunners.table6() }
object Table7Job { def main(args: Array[String]): Unit = TableRunners.table7() }

/** End-to-end Spark DataFrame join: taxi-like points vs the neighborhoods
  * polygon set, approximate (4 m) and exact, printing per-polygon top
  * counts and probe metrics.
  */
object JoinDemo {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-join-demo")
      .getOrCreate()
    try {
      val n = if (args.nonEmpty) args(0).toLong else 1000000L
      val points = SpatialData.pointsDf(spark, n, taxi = true)
      val polysDf = SpatialData.polygonsDf(spark, SpatialData.neighborhoods())

      val m = SpatialJoin.newMetrics(spark)
      val approx = SpatialJoin.join(points, polysDf, exact = false, precision = Some(4.0), metrics = Some(m))
      SpatialJoin.countsPerPolygon(approx).orderBy(org.apache.spark.sql.functions.desc("cnt")).show(10)
      println(s"approx: probes=${m.probes.value} true=${m.trueHitPairs.value} " +
              s"cand=${m.candidatePairs.value} pip=${m.pipTests.value}")

      val m2 = SpatialJoin.newMetrics(spark)
      val exact = SpatialJoin.join(points, polysDf, exact = true, metrics = Some(m2))
      SpatialJoin.countsPerPolygon(exact).orderBy(org.apache.spark.sql.functions.desc("cnt")).show(10)
      println(s"exact: probes=${m2.probes.value} true=${m2.trueHitPairs.value} " +
              s"cand=${m2.candidatePairs.value} pip=${m2.pipTests.value}")
    } finally spark.stop()
  }
}
