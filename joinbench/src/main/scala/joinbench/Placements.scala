package joinbench

import com.sun.management.HotSpotDiagnosticMXBean
import java.lang.management.ManagementFactory
import repro.act.ACT
import repro.core.ActIndex
import scala.collection.mutable.ArrayBuffer

/** One shared index reached through trie headers at each of the eight
  * 8-byte offsets within a 64-byte cache line.
  *
  * Every probe writes the `ACT.nodeAccesses` and `lastDepth` fields of the
  * trie's header object, so when all threads probe one shared trie they
  * contend for that object's cache line. How much this costs depends on
  * where the header lies in its line: on a 4-vCPU host the neighborhoods
  * kernel reads about 13 Mpts/s with the header at offsets 24 and 32 and
  * about 40 Mpts/s at the other six, and the offset is fixed by where the
  * JVM happens to place the object. A kernel timed over the index as built
  * therefore reads one mode or the other from run to run.
  *
  * The headers here share the index's node store, lookup table and
  * polygons, so each is the same shared index; they differ only in where
  * their header lies. Timing all threads over each offset in turn and
  * combining the offsets weights every placement equally.
  */
final class Placements(index: ActIndex) {
  import Placements._

  private val headers = ArrayBuffer.empty[ActIndex]
  /** Keeps the spacers between headers alive, so a full GC keeps the
    * headers apart.
    */
  private val spacers = ArrayBuffer.empty[AnyRef]

  /** The index through a header that lies `offset` bytes into its cache
    * line now. Read addresses go stale at the next GC, so call this right
    * before each use.
    */
  def at(offset: Int): ActIndex = {
    require(offset % 8 == 0 && offset >= 0 && offset < 64, s"offset $offset")
    var round = 0
    var found = headers.find(h => lineOffset(h.act) == offset)
    while (found.isEmpty) {
      require(round < MaxRounds, s"no trie header at offset $offset after $round rounds")
      // Headers, each followed by a spacer of 1 to 4 longs, then a full GC
      // so they reach their final place in the old generation.
      val batch = Array.tabulate[AnyRef](2 * BatchSize) { k =>
        if (k % 2 == 0) new ActIndex(index.polys, index.sc, index.lut, header(index.act))
        else new Array[Long](1 + round % 4)
      }
      batch.foreach {
        case h: ActIndex => headers += h
        case s => spacers += s
      }
      System.gc()
      round += 1
      found = headers.find(h => lineOffset(h.act) == offset)
    }
    found.get
  }
}

object Placements {
  /** Offsets of an 8-byte-aligned object within a 64-byte line. */
  val Offsets: Seq[Int] = 0 until 64 by 8
  private val BatchSize = 32
  private val MaxRounds = 16

  private val unsafe: sun.misc.Unsafe = {
    val f = classOf[sun.misc.Unsafe].getDeclaredField("theUnsafe")
    f.setAccessible(true)
    f.get(null).asInstanceOf[sun.misc.Unsafe]
  }

  /** Compressed references are decoded as `narrow << 3`: zero-based
    * compressed oops with 8-byte alignment, as the fixed heap of a run
    * gives. Anything else fails the run.
    */
  private val oopShift: Int = {
    val hs = ManagementFactory.getPlatformMXBean(classOf[HotSpotDiagnosticMXBean])
    require(hs.getVMOption("UseCompressedOops").getValue == "true" &&
      hs.getVMOption("ObjectAlignmentInBytes").getValue == "8",
      "trie header placement needs compressed oops with 8-byte alignment")
    3
  }

  private val slot = new Array[AnyRef](1)
  private val slotBase = unsafe.arrayBaseOffset(classOf[Array[AnyRef]]).toLong

  /** Byte offset of `o` within its 64-byte cache line. */
  def lineOffset(o: AnyRef): Int = slot.synchronized {
    slot(0) = o
    val narrow = unsafe.getInt(slot, slotBase) & 0xffffffffL
    slot(0) = null
    ((narrow << oopShift) & 63).toInt
  }

  private def field(name: String) = {
    val f = classOf[ACT].getDeclaredField(name)
    f.setAccessible(true)
    f
  }
  private val shared = Seq("nodes", "prefixLen", "prefixBits").map(field)

  /** A new trie header over `act`'s node store and root prefix. */
  def header(act: ACT): ACT = {
    val h = new ACT(act.bitsPerLevel)
    shared.foreach(f => f.set(h, f.get(act)))
    h
  }
}
