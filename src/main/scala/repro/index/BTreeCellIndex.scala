package repro.index

import repro.act.TaggedEntry
import repro.grid.CellId
import repro.metrics.ProbeCounter

/** Baseline "GBT" (§4.1): an in-memory B+-tree over `(cellId, entry)` pairs
  * mirroring Google's cpp-btree with its best-performing 256-byte target
  * node size — 16 slots per node.
  *
  * The tree is bulk-loaded from the (already sorted) super covering, so
  * every node's children are contiguous (child of node `p` at position `j`
  * is node `p * 16 + j` one level down) and no pointer arrays are needed.
  * Lookup descends root→leaf via separator keys and finishes with the same
  * range-containment check as the sorted vector.
  */
final class BTreeCellIndex private (
    levelKeys: Array[Array[Long]],  // per inner level (0 = just above leaves)
    levelFirst: Array[Array[Int]],  // per inner level: node -> key offset
    leafIds: Array[Long],
    leafEntries: Array[Long],
    nLeaves: Int,
) extends CellIndex {

  import BTreeCellIndex.Cap

  /** 256 bytes per node (the paper's GBT node size). */
  def sizeBytes: Long =
    (nLeaves.toLong + levelFirst.map(_.length - 1).sum) * 256

  /** Counts one access per node visited, leaf included: the tree height. */
  def probe(leafId: Long, m: ProbeCounter): Long = {
    val n = leafIds.length
    var node = 0
    var lvl = levelFirst.length - 1
    m.accesses += levelFirst.length + 1
    while (lvl >= 0) { // descend inner levels, root first
      val first = levelFirst(lvl)
      val keys = levelKeys(lvl)
      var j = first(node)
      val end = first(node + 1)
      // Linear scan within a 16-slot node — what cpp-btree does as well.
      while (j < end && keys(j) <= leafId) j += 1
      node = node * Cap + (j - first(node))
      lvl -= 1
    }
    val start = node * Cap
    val stop = math.min(n, start + Cap)
    var i = start
    while (i < stop && leafIds(i) < leafId) i += 1
    // i = first index >= leafId within this leaf (or stop). The containing
    // cell is leafIds(i) (a cell whose id follows the leaf id but whose
    // range starts before it) or the global predecessor.
    if (i < stop && CellId.rangeMin(leafIds(i)) <= leafId) return leafEntries(i)
    if (i == stop && i < n && CellId.rangeMin(leafIds(i)) <= leafId) return leafEntries(i)
    if (i > 0 && CellId.rangeMax(leafIds(i - 1)) >= leafId) return leafEntries(i - 1)
    TaggedEntry.NoHit
  }
}

object BTreeCellIndex {
  /** 16 slots ~ a 256-byte node of 8-byte keys. */
  val Cap = 16

  /** Bulk-load from sorted pairs. */
  def apply(ids: Array[Long], entries: Array[Long]): BTreeCellIndex = {
    val n = ids.length
    val nLeaves = math.max(1, (n + Cap - 1) / Cap)

    // Min key of child c at the level currently being grouped.
    var childCount = nLeaves
    var childMinKey: Array[Long] =
      Array.tabulate(nLeaves)(c => if (c * Cap < n) ids(c * Cap) else Long.MaxValue)

    val keysB = Vector.newBuilder[Array[Long]]
    val firstB = Vector.newBuilder[Array[Int]]
    while (childCount > 1) {
      val nNodes = (childCount + Cap - 1) / Cap
      val first = new Array[Int](nNodes + 1)
      val keys = Array.newBuilder[Long]
      var keyOff = 0
      var node = 0
      while (node < nNodes) {
        first(node) = keyOff
        val s = node * Cap
        val e = math.min(childCount, s + Cap)
        var c = s + 1 // one separator per child except the first
        while (c < e) { keys += childMinKey(c); keyOff += 1; c += 1 }
        node += 1
      }
      first(nNodes) = keyOff
      keysB += keys.result()
      firstB += first
      childMinKey = Array.tabulate(nNodes)(p => childMinKey(p * Cap))
      childCount = nNodes
    }
    new BTreeCellIndex(keysB.result().toArray, firstB.result().toArray, ids, entries, nLeaves)
  }
}
