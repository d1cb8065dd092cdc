package repro.act

import repro.grid.CellId
import repro.metrics.ProbeCounter
import scala.collection.mutable

/** Adaptive Cell Trie (§3.1.2): a static radix tree over 64-bit cell ids.
  *
  * Configurable fanout: `bitsPerLevel` β ∈ {2, 4, 8} — the paper's ACT1,
  * ACT2 and ACT4 variants (1, 2 and 4 quadtree levels per tree level).
  * Nodes are flat `Array[Long]` of 2^β tagged slots ([[TaggedEntry]]);
  * entry 0 is the sentinel ("no hit").
  *
  * Key extension (§3.1.2): a cell whose key length `2*level` is not a
  * multiple of β is decomposed into all descendant slots at the node's
  * granularity, replicating its value — so a node lookup is a single offset
  * access and no per-slot level needs storing.
  *
  * A common prefix is kept only at the root (the paper found deeper path
  * compression not worthwhile). The final tree level may consume fewer than
  * β bits when 60 is not a multiple of β (mirrors S2's 30-level ceiling).
  *
  * The structure is immutable after build except for [[writeCell]], which
  * training (§3.3.1) uses to overwrite a cell's slot range with refined
  * descendants. Probing writes nothing on it: node accesses and depth go to
  * the caller's [[ProbeCounter]], so all cores can probe one trie.
  */
final class ACT(val bitsPerLevel: Int) extends repro.index.CellIndex {
  require(Set(2, 4, 8).contains(bitsPerLevel), "fanout must be 2, 4 or 8 bits")

  val fanout: Int = 1 << bitsPerLevel

  /** Flat node store; node 0 is the root. A slot holds a tagged entry. */
  private[act] val nodes = mutable.ArrayBuffer[Array[Long]](new Array[Long](fanout))

  /** Root common prefix: `prefixLen` bits (multiple of β), MSB-aligned in
    * the low-60-bit path space.
    */
  private[act] var prefixLen: Int = 0
  private[act] var prefixBits: Long = 0L

  /** Node accesses of one-argument probes and recorded kernel calls
    * ([[accessCount]]).
    */
  def nodeAccesses: Long = accessCount

  def nodeCount: Int = nodes.length
  /** Size in bytes: slot arrays (the paper's 8-byte-pointer arrays). */
  def sizeBytes: Long = nodes.length.toLong * fanout * 8

  /** Probe with a leaf (level-30) cell id; returns a value entry or NoHit.
    * Straight transcription of Listing 2 plus the root prefix check. A probe
    * that reaches a value adds its depth (= its node accesses) to
    * `m.accesses`; a root-prefix miss counts nothing.
    */
  def probe(leafId: Long, m: ProbeCounter): Long = {
    val path = CellId.path60(leafId)
    if (prefixLen > 0 && (path >>> (60 - prefixLen)) != (prefixBits >>> (60 - prefixLen)))
      return TaggedEntry.NoHit
    var nodeIdx = 0
    var consumed = prefixLen
    var depth = 0
    while (true) {
      depth += 1
      val avail = math.min(bitsPerLevel, 60 - consumed)
      val c = ((path >>> (60 - consumed - avail)) & ((1L << avail) - 1)).toInt
      val e = nodes(nodeIdx)(c)
      if (TaggedEntry.tag(e) == TaggedEntry.TagPointer) {
        nodeIdx = TaggedEntry.pointerTarget(e)
        consumed += avail
      } else {
        m.accesses += depth
        return e
      }
    }
    TaggedEntry.NoHit // unreachable
  }

  /** Write value `entry` over the whole area of `cell` (key extension:
    * possibly several slots, or a pushed-down subtree). Existing content in
    * that area is overwritten — the build inserts disjoint cells so nothing
    * is lost; training overwrites deliberately (remove-original semantics).
    * `entry == NoHit` clears the area.
    */
  def writeCell(cell: Long, entry: Long): Unit = {
    val path = CellId.path60(cell)
    val bits = 2 * CellId.level(cell)
    require(bits >= prefixLen, s"cell key shorter than root prefix ($bits < $prefixLen)")
    var nodeIdx = 0
    var consumed = prefixLen
    var done = false
    while (!done) {
      val node = nodes(nodeIdx)
      val avail = math.min(bitsPerLevel, 60 - consumed)
      val rem = bits - consumed
      if (rem > avail) {
        // Descend (creating or pushing down as needed).
        val c = ((path >>> (60 - consumed - avail)) & ((1L << avail) - 1)).toInt
        val e = node(c)
        if (TaggedEntry.tag(e) == TaggedEntry.TagPointer) {
          nodeIdx = TaggedEntry.pointerTarget(e)
        } else {
          val fresh = new Array[Long](fanout)
          if (e != TaggedEntry.NoHit) {
            // Push-down: the old value covered this whole slot; replicate it
            // so untouched descendants keep resolving to it.
            java.util.Arrays.fill(fresh, e)
          }
          nodes += fresh
          val idx = nodes.length - 1
          node(c) = TaggedEntry.pointer(idx)
          nodeIdx = idx
        }
        consumed += avail
      } else {
        // Terminal node: the cell occupies 2^(avail-rem) consecutive slots.
        val highBits = ((path >>> (60 - consumed - rem)) & ((1L << rem) - 1)).toInt
        val count = 1 << (avail - rem)
        val base = highBits << (avail - rem)
        var i = 0
        while (i < count) { node(base + i) = entry; i += 1 }
        done = true
      }
    }
  }
}

object ACT {

  /** Build an ACT over sorted super-covering cells and their value entries
    * (see [[repro.core.ActIndex.entries]]). The root common prefix is the
    * longest β-aligned prefix shared by all cell paths (and no longer than
    * the shortest key).
    */
  def build(bitsPerLevel: Int, cellIds: Array[Long], entries: Array[Long]): ACT = {
    val act = new ACT(bitsPerLevel)
    if (cellIds.nonEmpty) {
      // Longest common bit prefix across all paths, capped by min key length.
      var minBits = Int.MaxValue
      var common = 60
      val first = CellId.path60(cellIds(0))
      var i = 0
      while (i < cellIds.length) {
        val bits = 2 * CellId.level(cellIds(i))
        if (bits < minBits) minBits = bits
        // Paths are MSB-aligned at bit 59, so the shared prefix length within
        // the 60-bit space is nlz(xor) - 4 (60 when the paths are identical).
        val xor = first ^ CellId.path60(cellIds(i))
        val cp = java.lang.Long.numberOfLeadingZeros(xor) - 4
        if (cp < common) common = cp
        i += 1
      }
      var p = math.max(0, math.min(common, minBits))
      p -= p % bitsPerLevel
      act.prefixLen = p
      act.prefixBits = if (p > 0) (first >>> (60 - p)) << (60 - p) else 0L

      i = 0
      while (i < cellIds.length) {
        act.writeCell(cellIds(i), entries(i))
        i += 1
      }
    }
    act
  }
}
