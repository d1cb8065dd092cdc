package joinbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed window: a single pass of a timed call, with the GC time spent
  * inside it and the host reference speed measured just before it.
  * `heapMb` is the Spark driver's heap after a full GC, taken after Spark samples.
  */
final case class Window(metric: String, seconds: Double, value: Double,
                        gcMs: Long, refMops: Double, heapMb: Option[Double])

/** A span around one call into a layer of the program. `parent` is -1 for
  * a root span; all spans of one run share the run's identifier.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

/** Keeps the timed windows and, when tracing, the spans of one run in
  * memory; [[Main]] writes them out when the run ends. Spans are recorded
  * from the benchmark's own thread only, around calls into the program.
  */
final class Recorder(var tracing: Boolean) {
  val windows = ArrayBuffer.empty[Window]
  val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]

  def span[T](name: String)(body: => T): T =
    if (!tracing) body
    else {
      val id = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += Span(id, parent, name, System.nanoTime(), -1L)
      open = id :: open
      try body
      finally {
        open = open.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  /** Runs `body` as one window of `metric`; `value` turns the window's
    * seconds into the metric's value.
    */
  def window[T](metric: String, value: Double => Double)(body: => T): T = {
    val ref = Recorder.refMops()
    val gc0 = Recorder.gcMs()
    val t0 = System.nanoTime()
    val r = span(metric)(body)
    val sec = (System.nanoTime() - t0) / 1e9
    windows += Window(metric, sec, value(sec), Recorder.gcMs() - gc0, ref, None)
    r
  }

  /** Attaches the post-GC heap of the Spark driver to the last window. */
  def recordHeap(): Unit = {
    System.gc()
    val mb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    windows(windows.size - 1) = windows.last.copy(heapMb = Some(mb))
  }

  def values(metric: String): Seq[Double] = windows.filter(_.metric == metric).map(_.value).toSeq
  def median(metric: String): Double = Recorder.median(values(metric))
}

object Recorder {
  @volatile private var sink = 0L

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** A fixed xorshift loop, in M iterations/s: a reading of host speed
    * that no change to the program can move.
    */
  def refMops(): Double = {
    val n = 2000000
    var x = 0x9e3779b97f4a7c15L
    var i = 0
    val t0 = System.nanoTime()
    while (i < n) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      i += 1
    }
    val sec = (System.nanoTime() - t0) / 1e9
    sink ^= x
    n / sec / 1e6
  }
}
