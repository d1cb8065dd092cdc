package repro.core

/** 31-bit polygon reference: bits 1..30 = polygon id, bit 0 = interior flag
  * (1 = interior/true hit, 0 = boundary/candidate hit) — exactly the
  * encoding ACT inlines into tagged entries (§3.1.2).
  */
object PolygonRef {
  /** Largest polygon id: 2^30 - 2, so ids 0..2^30-2 (the paper's 30-bit
    * polygon ids, less one). An inline tagged entry stores `ref + 1` in 31
    * bits, and the interior ref of id 2^30 - 1 is `Int.MaxValue`, whose
    * successor does not fit ([[repro.act.TaggedEntry.inline1]]).
    */
  val MaxPolygonId: Int = (1 << 30) - 2

  @inline def apply(polygonId: Int, interior: Boolean): Int = {
    require(polygonId >= 0 && polygonId <= MaxPolygonId, s"polygon id $polygonId out of range")
    (polygonId << 1) | (if (interior) 1 else 0)
  }

  @inline def polygonId(ref: Int): Int = ref >>> 1
  @inline def isInterior(ref: Int): Boolean = (ref & 1) == 1

  /** Boundary (candidate) twin of `ref`. */
  @inline def asBoundary(ref: Int): Int = ref & ~1
  /** Interior (true-hit) twin of `ref`. */
  @inline def asInterior(ref: Int): Int = ref | 1
}

/** Reference list of one super-covering cell, kept sorted & deduplicated by
  * polygon id (an interior ref absorbs a boundary ref to the same polygon —
  * a cell fully inside a polygon cannot also be its boundary cell).
  */
final case class RefList(refs: Array[Int]) {
  def size: Int = refs.length
  def isEmpty: Boolean = refs.isEmpty
  /** Cells with >=1 candidate (boundary) ref are the paper's "expensive
    * cells" — hitting one forces a PIP test in the exact join (§3.3.1).
    */
  def isExpensive: Boolean = refs.exists(r => !PolygonRef.isInterior(r))
  def trueHits: Array[Int]  = refs.filter(PolygonRef.isInterior)
  def candidates: Array[Int] = refs.filterNot(PolygonRef.isInterior)

  def merge(other: RefList): RefList = RefList.of(refs ++ other.refs)

  override def equals(o: Any): Boolean = o match {
    case RefList(r) => java.util.Arrays.equals(refs, r)
    case _          => false
  }
  override def hashCode(): Int = java.util.Arrays.hashCode(refs)
  override def toString: String =
    refs.map(r => s"${PolygonRef.polygonId(r)}${if (PolygonRef.isInterior(r)) "i" else "b"}")
        .mkString("[", ",", "]")
}

object RefList {
  val empty: RefList = RefList(Array.emptyIntArray)

  /** Normalize: sort by polygon id, dedupe, interior wins over boundary.
    * Sorted refs group by polygon id, and in each run the interior ref
    * (`pid << 1 | 1`) comes last, so the last ref of each run is kept.
    */
  def of(raw: Array[Int]): RefList = {
    val s = raw.clone()
    java.util.Arrays.sort(s)
    var n = 0
    var i = 0
    while (i < s.length) {
      if (i + 1 == s.length || PolygonRef.polygonId(s(i + 1)) != PolygonRef.polygonId(s(i))) {
        s(n) = s(i); n += 1
      }
      i += 1
    }
    RefList(if (n == s.length) s else java.util.Arrays.copyOf(s, n))
  }
}
