package repro.act

import repro.core.{PolygonRef, RefList}
import scala.collection.mutable

/** The paper's lookup table (§3.1.2): when a super-covering cell references
  * more than two polygons, its ACT slot stores an offset into this single
  * Int array. Each encoded entry is
  *
  * {{{ [#trueHits, trueHitPid..., #candidates, candidatePid...] }}}
  *
  * Reference lists are deduplicated — cells sharing the same polygon set
  * share one encoded entry.
  */
final class LookupTable extends Serializable {
  private val data = mutable.ArrayBuffer.empty[Int]
  private val dedup = mutable.HashMap.empty[RefList, Int]

  /** Append (or reuse) the encoding of `refs`; returns its offset. */
  def internAll(refs: RefList): Int = dedup.getOrElseUpdate(refs, {
    val off = data.length
    val t = refs.trueHits
    val c = refs.candidates
    data += t.length
    t.foreach(r => data += PolygonRef.polygonId(r))
    data += c.length
    c.foreach(r => data += PolygonRef.polygonId(r))
    off
  })

  @inline def apply(i: Int): Int = data(i)

  def sizeInts: Int = data.length
  def sizeBytes: Long = data.length.toLong * 4
}
