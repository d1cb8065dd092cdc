package repro.index

import repro.act.TaggedEntry
import repro.grid.CellId
import repro.metrics.ProbeCounter

/** Baseline "LB" (§4.1): binary search (`std::lower_bound`) on a sorted
  * vector of `(cellId, taggedEntry)` pairs.
  *
  * Containment on the id order uses S2CellUnion-style range arithmetic:
  * the candidate containing cell of a leaf id is either the first stored id
  * `>=` the leaf id or its predecessor; disjointness makes the match unique.
  */
final class SortedCellVector(val ids: Array[Long], val entries: Array[Long]) extends CellIndex {
  require(ids.length == entries.length)

  /** 16 bytes per (id, entry) pair — like the paper's pair vector. */
  def sizeBytes: Long = ids.length.toLong * 16

  /** Counts one access per binary-search step. */
  def probe(leafId: Long, m: ProbeCounter): Long = {
    var lo = 0
    var hi = ids.length
    var steps = 0
    while (lo < hi) { // first id >= leafId
      val mid = (lo + hi) >>> 1
      steps += 1
      if (ids(mid) < leafId) lo = mid + 1 else hi = mid
    }
    m.accesses += steps
    if (lo < ids.length && CellId.rangeMin(ids(lo)) <= leafId) return entries(lo)
    if (lo > 0 && CellId.rangeMax(ids(lo - 1)) >= leafId) return entries(lo - 1)
    TaggedEntry.NoHit
  }
}

object SortedCellVector {
  def apply(ids: Array[Long], entries: Array[Long]): SortedCellVector =
    new SortedCellVector(ids, entries)
}
