package joinbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.{ByteArrayInputStream, ByteArrayOutputStream, File, ObjectInputStream, ObjectOutputStream, OutputStream}
import java.util.concurrent.{Callable, ExecutorService, Executors}
import org.apache.spark.joinbench.Broadcasts
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.act.{ACT, LookupTable, TaggedEntry}
import repro.core.{ActIndex, Join, JoinStats, PolygonRef, SuperCovering}
import repro.geo.Polygon
import repro.grid.{CellId, Covering}
import repro.index.RTree
import repro.spark.SpatialJoin
import repro.spatial.SpatialData
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._
import scala.jdk.CollectionConverters._

/** One run of one workload in a fresh JVM.
  *
  * Untraced (`--trace 0`): the end-to-end metrics. Traced (`--trace 1`):
  * the per-layer metrics, with spans around every call into a layer. Both
  * start with the same untimed warm-up, and only ACT4 ever reaches the
  * `Join.*Counts` call sites. Every timed result is checked against the
  * workload's reference: an R-tree filter plus `Polygon.contains` for the
  * exact workloads, the first single-thread pass for the approximate one.
  */
final class Bench(a: Args) {
  import Bench._

  private val w = a.workload
  private val born = System.nanoTime()
  /** Progress on stderr, with seconds since the run started. */
  private def log(msg: String): Unit =
    System.err.println(f"[joinbench] ${(System.nanoTime() - born) / 1e9}%7.2fs $msg")

  private val rec = new Recorder(a.trace)
  private val nproc = Runtime.getRuntime.availableProcessors
  private val pool: ExecutorService = Executors.newFixedThreadPool(nproc)
  private var sparkSession: Option[SparkSession] = None

  private val polys: Array[Polygon] = SpatialData.dataset(w.dataset)
  private val (xs, ys, ids) = SpatialData.pointArrays(Main.Points, w.taxi, a.seed)
  private val trainIds: Array[Long] =
    if (w.trainPoints > 0) SpatialData.pointArrays(w.trainPoints, taxi = true, Main.TrainSeed)._3
    else Array.emptyLongArray
  /** The points cut into `nproc` contiguous slices, one per thread. */
  private val slices: Array[(Array[Double], Array[Double], Array[Long])] =
    Array.tabulate(nproc) { t =>
      val lo = (Main.Points.toLong * t / nproc).toInt
      val hi = (Main.Points.toLong * (t + 1) / nproc).toInt
      (java.util.Arrays.copyOfRange(xs, lo, hi), java.util.Arrays.copyOfRange(ys, lo, hi),
       java.util.Arrays.copyOfRange(ids, lo, hi))
    }

  private var attempted = 0L
  private var failed = 0L
  private val counts = mutable.LinkedHashMap.empty[String, Long]

  private def check(what: String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      System.err.println(s"CHECK FAILED: $what")
    }
  }

  /** Records a count that must read the same in every rep and every run
    * of this workload and seed.
    */
  private def count(name: String, v: Long): Unit = counts.get(name) match {
    case Some(prev) => check(s"$name repeats within the run ($prev vs $v)", prev == v)
    case None => counts(name) = v
  }

  // --- the timed calls --------------------------------------------------

  /** The public build path: `ActIndex.build`, then `train` where the
    * workload trains, under the Table 6 memory budget.
    */
  private def setup(): ActIndex = {
    val idx = rec.span("act.ActIndex.build")(ActIndex.build(polys, 8, w.precision))
    if (w.trainPoints > 0) {
      val budget = idx.act.sizeBytes + TrainBudgetBytes
      rec.span("core.ActIndex.train")(idx.train(trainIds, maxBytes = budget))
    }
    idx
  }

  private def kernel(idx: ActIndex, px: Array[Double], py: Array[Double], pids: Array[Long],
                     out: Array[Long]): JoinStats =
    if (w.exact) Join.exactCounts(idx.act, idx.lut, px, py, pids, idx.polys, out)
    else Join.approximateCounts(idx.act, idx.lut, pids, out)

  private def kernel1t(idx: ActIndex): (Array[Long], JoinStats) = {
    val out = new Array[Long](polys.length)
    val st = kernel(idx, xs, ys, ids, out)
    (out, st)
  }

  /** `nproc` threads, thread `t` probing slice `t` against `indexOf(t)`;
    * per-thread counts are merged afterwards.
    */
  private def kernelMt(indexOf: Int => ActIndex): Array[Long] = {
    val futures = (0 until nproc).map { t =>
      pool.submit(new Callable[Array[Long]] {
        def call(): Array[Long] = {
          val (px, py, pids) = slices(t)
          val out = new Array[Long](polys.length)
          kernel(indexOf(t), px, py, pids, out)
          out
        }
      })
    }
    val total = new Array[Long](polys.length)
    futures.foreach { f =>
      val c = f.get()
      var p = 0
      while (p < c.length) { total(p) += c(p); p += 1 }
    }
    total
  }

  /** Runs `body` on one thread of the pool while the others idle. */
  private def onPoolThread[T](body: => T): T =
    pool.submit(new Callable[T] { def call(): T = body }).get()

  /** Independent exact reference: R-tree MBR filter plus full PIP. */
  private def rtreeReference(): Array[Long] = {
    val rt = RTree(polys)
    val parts = (0 until nproc).map { t =>
      pool.submit(new Callable[Array[Long]] {
        def call(): Array[Long] = {
          val (px, py, _) = slices(t)
          val out = new Array[Long](polys.length)
          val hits = new java.util.ArrayList[Integer]()
          var i = 0
          while (i < px.length) {
            rt.query(px(i), py(i), hits)
            var k = 0
            while (k < hits.size) {
              val pid = hits.get(k).intValue
              if (polys(pid).contains(px(i), py(i))) out(pid) += 1
              k += 1
            }
            i += 1
          }
          out
        }
      })
    }.map(_.get())
    Array.tabulate(polys.length)(p => parts.map(_(p)).sum)
  }

  // --- Spark ------------------------------------------------------------

  private def spark: SparkSession = sparkSession.getOrElse {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("joinbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(a.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(a.out, "spark-warehouse").getAbsolutePath)
      .config("spark.sql.shuffle.partitions", nproc.toString)
      // The points are generated and cached in 4 partitions per core, so
      // one slow core delays a query by a quarter task, not a quarter of
      // all the work.
      .config("spark.default.parallelism", (4 * nproc).toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    sparkSession = Some(s)
    s
  }

  private lazy val pointsDf: DataFrame = {
    val df = SpatialData.pointsDf(spark, Main.Points, w.taxi, a.seed).cache()
    check("cached points DataFrame holds every point", df.count() == Main.Points)
    df
  }

  private def sparkPairs(idx: ActIndex): Long =
    SpatialJoin.joinWithIndex(pointsDf, idx, w.exact).count()

  private def sparkCounts(idx: ActIndex): Array[Long] = {
    val out = new Array[Long](polys.length)
    SpatialJoin.countsPerPolygon(SpatialJoin.joinWithIndex(pointsDf, idx, w.exact))
      .collect().foreach(r => out(r.getInt(0)) = r.getLong(1))
    out
  }

  /** One timed Spark sample, then its broadcast is released and the
    * post-GC heap of the Spark driver recorded beside it.
    */
  private def sparkSample[T](metric: String)(body: => T): T = {
    val r = rec.window(metric, mpts)(body)
    Broadcasts.releaseAll()
    rec.recordHeap()
    r
  }

  // --- runs -------------------------------------------------------------

  /** Identical in both kinds of run. Returns the reference counts. */
  private def warmUp(): Array[Long] = {
    setup() // the build code runs cold in the first build
    val idx = setup()
    count("index_bytes", idx.sizeBytes)
    val (first, _) = kernel1t(idx)
    kernelMt(_ => idx)
    if (w.exact) rtreeReference() else first
  }

  def run(): String = {
    log("inputs ready")
    val ref = rec.span("warm-up")(warmUp())
    log("warm-up done")
    val metrics = if (a.trace) traced(ref) else untraced(ref)
    finish(metrics)
  }

  /** Runs `body` at least `min` times, and again until `share` of the
    * run's `--seconds` has passed since the first call.
    */
  private def repeat(min: Int, share: Double)(body: => Unit): Unit = {
    val deadline = System.nanoTime() + (a.seconds * share * 1e9).toLong
    var k = 0
    while (k < min || System.nanoTime() < deadline) { body; k += 1 }
  }

  private val mpts = (s: Double) => Main.Points / s / 1e6
  private val secs = (s: Double) => s

  /** One full GC, so that earlier garbage is not collected inside the
    * next window.
    */
  private def settle(): Unit = System.gc()

  /** One timed build of the untraced run, after a full GC. */
  private def setupRep(): ActIndex = {
    settle()
    val idx = rec.window("setup_s", secs)(setup())
    count("index_bytes", idx.sizeBytes)
    idx
  }

  /** Throughput with the trie header equally likely at each offset of its
    * cache line: the harmonic mean of the per-offset medians of `metric`.
    */
  private def overOffsets(metric: String): Double =
    Placements.Offsets.size / Placements.Offsets.map(o => 1.0 / rec.median(s"$metric@$o")).sum

  /** Compiles and warms the operator's code paths on a small index before
    * the first Spark sample: the boroughs index broadcasts in milliseconds.
    */
  private def sparkWarmUp(): Unit = {
    pointsDf
    log("points cached")
    val small = ActIndex.build(SpatialData.boroughs(), 8, None)
    for (_ <- 0 until SparkWarmUpRounds) {
      sparkPairs(small)
      sparkCounts(small)
      Broadcasts.releaseAll()
    }
  }

  private def untraced(ref: Array[Long]): Seq[Metric] = {
    val refPairs = ref.sum

    // Builds come in three blocks, at the start, after the kernel passes
    // and at the end, so that they sample the whole run.
    var idx: ActIndex = null
    for (_ <- 0 until SetupRepsPerBlock) {
      idx = null // the previous index is garbage before the next build
      idx = setupRep()
    }
    val index = idx
    // The single-thread passes take turns over deserialized copies of the
    // trie, so a run samples many placements of it in memory, and they go
    // on between the Spark samples, so they span the whole run.
    val copies = trieCopies(index, TrieCopies)
    // The all-core passes share one index and take turns over the offsets
    // of its trie header in a cache line (see Placements).
    val placements = new Placements(index)
    settle()
    log("setup done")

    // One vCPU of a shared virtual machine can run much slower than its
    // siblings for seconds at a time, so single-thread passes take turns
    // over the pool's threads, which the all-core passes spread over the
    // cores.
    var pass = 0
    def kernelPass(): Unit = {
      val idx = copies(pass % copies.length)
      val (c, _) = rec.window("kernel_1t_mpts", mpts)(onPoolThread(kernel1t(idx)))
      check("1-thread kernel counts", java.util.Arrays.equals(c, ref))
      val off = Placements.Offsets(pass % Placements.Offsets.size)
      val shared = placements.at(off)
      val cm = rec.window(s"kernel_mt_mpts@$off", mpts)(kernelMt(_ => shared))
      check("all-core kernel counts", java.util.Arrays.equals(cm, ref))
      pass += 1
    }
    repeat(MinKernelPasses, KernelShare)(kernelPass())
    log("kernels done")
    for (_ <- 0 until SetupRepsPerBlock) setupRep()
    sparkWarmUp()
    log("Spark warm-up done")
    repeat(MinSparkSamples, SparkShare) {
      val pairs = sparkSample("spark_mpts")(sparkPairs(index))
      check(s"Spark pair count ($pairs vs $refPairs)", pairs == refPairs)
      for (_ <- 0 until KernelPassesPerSparkSample) kernelPass()
      val c = sparkSample("spark_counts_mpts")(sparkCounts(index))
      check("Spark counts per polygon", java.util.Arrays.equals(c, ref))
      for (_ <- 0 until KernelPassesPerSparkSample) kernelPass()
    }
    for (_ <- 0 until SetupRepsPerBlock) setupRep()

    Seq(
      Metric("setup_s", rec.median("setup_s"), "s"),
      Metric("index_mb", index.sizeBytes / Mib, "MiB"),
      Metric("kernel_1t_mpts", rec.median("kernel_1t_mpts"), "Mpts/s"),
      Metric("kernel_mt_mpts", overOffsets("kernel_mt_mpts"), "Mpts/s"),
      Metric("spark_mpts", rec.median("spark_mpts"), "Mpts/s"),
      Metric("spark_counts_mpts", rec.median("spark_counts_mpts"), "Mpts/s"),
    )
  }

  /** The build, layer by layer through the same public functions the
    * build path calls, with a span and a window around each layer.
    */
  private def layeredSetup(): ActIndex = rec.span("setup") {
    val (covs, ints) = rec.window("grid.covering_s", secs) {
      (polys.par.map(p => p.id -> Covering.covering(p)).seq.toSeq,
       polys.par.map(p => p.id -> Covering.interiorCovering(p)).seq.toSeq)
    }
    count("grid.covering_cells", covs.map(_._2.size.toLong).sum + ints.map(_._2.size.toLong).sum)
    val sc = rec.window("core.merge_s", secs)(SuperCovering.build(covs, ints))
    count("core.sc_cells", sc.cellCount)
    w.precision.foreach { p =>
      rec.window("core.refine_s", secs)(
        SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(p), polys))
    }
    val idx = rec.window("act.build_s", secs)(ActIndex.fromSuperCovering(polys, sc, 8))
    if (w.trainPoints > 0) {
      val budget = idx.act.sizeBytes + TrainBudgetBytes
      val r = rec.window("core.train_s", secs)(idx.train(trainIds, maxBytes = budget))
      count("core.train_refinements", r)
    }
    count("act.nodes", idx.act.nodeCount)
    count("index_bytes", idx.sizeBytes)
    idx
  }

  private def traced(ref: Array[Long]): Seq[Metric] = {
    val n = Main.Points.toDouble

    // Tracing overhead: the untraced run's build, without spans, takes
    // turns with the traced build, layer by layer through the same public
    // functions the build path calls. The traced build's time is the sum
    // of its layer windows.
    var idx: ActIndex = null
    val layered = mutable.ArrayBuffer.empty[Double]
    repeat(MinTracedSetupReps, TracedSetupShare) {
      idx = null
      rec.tracing = false
      settle()
      idx = rec.window("trace.untraced_setup_s", secs)(setup())
      count("index_bytes", idx.sizeBytes)
      rec.tracing = true
      idx = null
      settle()
      val before = rec.windows.size
      idx = layeredSetup()
      layered += rec.windows.drop(before).map(_.seconds).sum
    }
    val index = idx
    settle()

    // One instrumented single-thread pass: join stats, node accesses, edges.
    index.act.resetMetrics()
    Polygon.resetEdgeTests()
    val (c1, st) = rec.span("kernel_1t")(kernel1t(index))
    check("instrumented 1-thread kernel counts", java.util.Arrays.equals(c1, ref))
    val accesses = index.act.nodeAccesses
    val edges = Polygon.edgeTests
    count("act.accesses", accesses)
    count("join.true_hit_pairs", st.trueHitPairs)
    count("join.candidate_pairs", st.candidatePairs)
    count("join.matched_points", st.matchedPoints)
    count("join.sth_points", st.sthPoints)
    count("geo.pip_tests", st.pipTests)
    count("geo.edges", edges)

    // Depth of each probe, as the node accesses it took.
    val depthHist = new Array[Long](8)
    rec.span("act.depths") {
      var i = 0
      while (i < ids.length) {
        val before = index.act.nodeAccesses
        index.act.probe(ids(i))
        depthHist(math.min(7, (index.act.nodeAccesses - before).toInt)) += 1
        i += 1
      }
    }
    depthHist.zipWithIndex.foreach { case (c, d) => count(s"act.depth$d", c) }

    repeat(MinPasses, 0.1) {
      rec.window("act.probe_mpts", mpts) {
        var acc = 0L
        var i = 0
        while (i < ids.length) { acc += index.act.probe(ids(i)); i += 1 }
        sink ^= acc
      }
    }

    if (w.exact) {
      val (pt, pid) = candidatePairs(index)
      check(s"decoded candidate pairs equal PIP tests (${pt.length} vs ${st.pipTests})", pt.length == st.pipTests)
      repeat(MinPasses, 0.1) {
        rec.window("geo.pip_ns", s => s * 1e9 / math.max(1, pt.length)) {
          var hits = 0
          var k = 0
          while (k < pt.length) {
            if (polys(pid(k)).contains(xs(pt(k)), ys(pt(k)))) hits += 1
            k += 1
          }
          sink ^= hits
        }
      }
    }

    // Serialization: what the broadcast ships.
    var serialized = 0L
    repeat(MinSerializePasses, 0) {
      val bytes = rec.window("spark.serialize_s", secs) {
        val out = new CountingStream
        val oos = new ObjectOutputStream(out)
        oos.writeObject(index)
        oos.close()
        out.bytes
      }
      count("spark.serialized_bytes", bytes)
      serialized = bytes
    }

    // All cores with a private index copy per thread: against the shared
    // index of kernel_mt_mpts, what the racy probe counters cost.
    val copies = rec.span("act.private_copies")(privateCopies(index))
    repeat(MinPasses, 0.1) {
      val c = rec.window("act.mt_private_mpts", mpts)(kernelMt(copies))
      check("private-copy all-core kernel counts", java.util.Arrays.equals(c, ref))
    }

    // Spark: scan ceiling and the operator's accumulators.
    val df = rec.span("spark.cache")(pointsDf)
    sparkWarmUp()
    repeat(MinPasses, 0.05) {
      rec.window("spark.scan_mpts", mpts)(check("scan count", df.count() == Main.Points))
    }
    val m = SpatialJoin.newMetrics(spark)
    val pairs = sparkSample("spark.join_mpts")(SpatialJoin.joinWithIndex(df, index, w.exact, Some(m)).count())
    check("accumulator Spark pair count", pairs == ref.sum)
    check(s"spark.probes equals points (${m.probes.value})", m.probes.value == Main.Points)
    check(s"spark.pip_tests equals kernel PIP tests (${m.pipTests.value} vs ${st.pipTests})",
      m.pipTests.value == st.pipTests)
    count("spark.probes", m.probes.value)
    count("spark.pip_tests", m.pipTests.value)

    val depthTotal = depthHist.sum.toDouble
    def zeroUnless(cond: Boolean)(v: => Double) = if (cond) v else 0.0
    Seq(
      Metric("grid.covering_s", rec.median("grid.covering_s"), "s"),
      Metric("grid.covering_cells", counts("grid.covering_cells"), "count"),
      Metric("core.merge_s", rec.median("core.merge_s"), "s"),
      Metric("core.sc_cells", counts("core.sc_cells"), "count"),
      Metric("core.refine_s", zeroUnless(w.precision.nonEmpty)(rec.median("core.refine_s")), "s"),
      Metric("core.train_s", zeroUnless(w.trainPoints > 0)(rec.median("core.train_s")), "s"),
      Metric("core.train_refinements", counts.getOrElse("core.train_refinements", 0L).toDouble, "count"),
      Metric("act.build_s", rec.median("act.build_s"), "s"),
      Metric("act.nodes", counts("act.nodes"), "count"),
      Metric("act.probe_mpts", rec.median("act.probe_mpts"), "Mpts/s"),
      Metric("act.accesses_per_pt", accesses / n, "count"),
    ) ++ (1 to 5).map(d => Metric(s"act.depth${d}_pct", 100.0 * depthHist(d) / depthTotal, "%")) ++ Seq(
      Metric("act.mt_private_mpts", rec.median("act.mt_private_mpts"), "Mpts/s"),
      Metric("join.true_hit_pairs", st.trueHitPairs, "count"),
      Metric("join.candidate_pairs", st.candidatePairs, "count"),
      Metric("join.matched_points", st.matchedPoints, "count"),
      Metric("join.sth_pct", st.sthPercent, "%"),
      Metric("geo.pip_tests_per_pt", st.pipTests / n, "count"),
      Metric("geo.edges_per_pt", edges / n, "count"),
      Metric("geo.pip_ns", zeroUnless(w.exact)(rec.median("geo.pip_ns")), "ns"),
      Metric("spark.scan_mpts", rec.median("spark.scan_mpts"), "Mpts/s"),
      Metric("spark.serialized_mb", serialized / Mib, "MiB"),
      Metric("spark.serialize_s", rec.median("spark.serialize_s"), "s"),
      Metric("spark.probes", m.probes.value.toDouble, "count"),
      Metric("spark.pip_tests", m.pipTests.value.toDouble, "count"),
      Metric("jvm.gc_ms", rec.windows.map(_.gcMs).sum.toDouble, "ms"),
      Metric("host.ref_mops", Recorder.median(rec.windows.map(_.refMops).toSeq), "Mops/s"),
      Metric("trace.overhead_pct",
        100.0 * (Recorder.median(layered.toSeq) / rec.median("trace.untraced_setup_s") - 1.0), "%"),
    )
  }

  /** (point index, polygon id) of every candidate reference the index
    * hands out — the pairs the exact kernel refines with PIP.
    */
  private def candidatePairs(idx: ActIndex): (Array[Int], Array[Int]) = {
    val pt = mutable.ArrayBuilder.make[Int]
    val pid = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < ids.length) {
      val e = idx.act.probe(ids(i))
      TaggedEntry.tag(e) match {
        case TaggedEntry.TagInline =>
          val r2 = TaggedEntry.inlineRef2(e)
          for (r <- if (r2 >= 0) Seq(TaggedEntry.inlineRef1(e), r2) else Seq(TaggedEntry.inlineRef1(e)))
            if (!PolygonRef.isInterior(r)) { pt += i; pid += PolygonRef.polygonId(r) }
        case TaggedEntry.TagOffset =>
          var off = TaggedEntry.offsetValue(e)
          off += 1 + idx.lut(off)
          val nC = idx.lut(off)
          var k = 1
          while (k <= nC) { pt += i; pid += idx.lut(off + k); k += 1 }
        case _ => ()
      }
      i += 1
    }
    (pt.result(), pid.result())
  }

  /** `nproc` copies of `idx`, one per thread, each with its own
    * deserialized polygons, lookup table and trie.
    */
  private def privateCopies(idx: ActIndex): Int => ActIndex = {
    val bytes = serialize(Array[AnyRef](idx.polys, idx.lut, idx.act))
    val copies = Array.fill(nproc) {
      deserialize(bytes) match {
        case Array(p: Array[Polygon @unchecked], lut: LookupTable, act: ACT) => new ActIndex(p, idx.sc, lut, act)
      }
    }
    copies(_)
  }

  private def serialize(o: AnyRef): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(buf)
    oos.writeObject(o)
    oos.close()
    buf.toByteArray
  }

  private def deserialize(bytes: Array[Byte]): AnyRef =
    new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject()

  /** `n` copies of `idx` that share all but the trie, which each copy
    * deserializes afresh.
    */
  private def trieCopies(idx: ActIndex, n: Int): Array[ActIndex] = {
    val bytes = serialize(idx.act)
    Array.fill(n)(new ActIndex(idx.polys, idx.sc, idx.lut, deserialize(bytes).asInstanceOf[ACT]))
  }

  // --- output -----------------------------------------------------------

  private def finish(metrics: Seq[Metric]): String = {
    val mapper = new ObjectMapper()
    val countsFile = new File(a.out, s"counts-${w.name}-seed${a.seed}.json")
    if (countsFile.exists()) {
      val before = mapper.readValue(countsFile, classOf[java.util.Map[String, Object]]).asScala
      counts.foreach { case (k, v) =>
        before.get(k).foreach { p =>
          val prev = p.asInstanceOf[Number].longValue
          check(s"$k repeats across runs ($prev vs $v)", prev == v)
        }
      }
      before.foreach { case (k, v) => if (!counts.contains(k)) counts(k) = v.asInstanceOf[Number].longValue }
    }
    mapper.writerWithDefaultPrettyPrinter().writeValue(countsFile, counts.map { case (k, v) => k -> Long.box(v) }.asJava)

    val runFile = new File(a.out, s"run-${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    val record = Map[String, Any](
      "workload" -> w.name, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "points" -> Main.Points, "nproc" -> nproc, "jvm" -> System.getProperty("java.vm.version"),
      "metrics" -> metrics.map(m => Map("name" -> m.name, "value" -> m.value, "unit" -> m.unit).asJava).asJava,
      "windows" -> rec.windows.map { x =>
        Map[String, Any]("metric" -> x.metric, "seconds" -> x.seconds, "value" -> x.value,
          "gc_ms" -> x.gcMs, "ref_mops" -> x.refMops, "heap_mb" -> x.heapMb.orNull).asJava
      }.asJava,
      "spans" -> rec.spans.map { s =>
        Map[String, Any]("run" -> s"${w.name}-seed${a.seed}", "id" -> s.id, "parent" -> s.parent,
          "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs).asJava
      }.asJava,
    ).asJava
    mapper.writerWithDefaultPrettyPrinter().writeValue(runFile, record)

    metrics.foreach(m => println(f"${m.name}%-24s ${m.value}%14.4f ${m.unit}"))
    val share = failed.toDouble / math.max(1L, attempted)
    println(f"${"failed_share"}%-24s $share%14.4f ratio ($failed of $attempted checks)")
    val result = Map[String, Any](
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit).asJava).toMap.asJava,
    ).asJava
    mapper.writeValueAsString(result)
  }

  def close(): Unit = {
    sparkSession.foreach(_.stop())
    pool.shutdownNow()
  }
}

final case class Metric(name: String, value: Double, unit: String)

object Bench {
  val Mib = 1048576.0
  /** Table 6 memory budget: the index may grow by 16 MiB in training. */
  val TrainBudgetBytes: Long = 16L * 1024 * 1024
  // Each phase of a run repeats its timed call at least a minimum number of
  // times, and again until the phase's share of `--seconds` has passed.
  /** Timed builds in each of the untraced run's three blocks. */
  val SetupRepsPerBlock = 2
  val MinTracedSetupReps = 3
  val TracedSetupShare = 0.2
  val MinKernelPasses = 8
  val KernelPassesPerSparkSample = 1
  val SparkWarmUpRounds = 2
  /** Trie copies the untraced kernel passes take turns over. */
  val TrieCopies = 4
  val KernelShare = 0.2
  val MinSparkSamples = 2
  val SparkShare = 0.6
  val MinPasses = 3
  val MinSerializePasses = 2

  @volatile private var sink = 0L

  /** Counts bytes written and discards them. */
  final class CountingStream extends OutputStream {
    var bytes = 0L
    override def write(b: Int): Unit = bytes += 1
    override def write(b: Array[Byte], off: Int, len: Int): Unit = bytes += len
  }
}
