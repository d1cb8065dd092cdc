package repro.act

import repro.core.{PolygonRef, RefList}

/** Tagged 64-bit slot entries (§3.1.2): a slot in an ACT node — and a
  * lookup result in every baseline structure, so all indexes are probed and
  * decoded identically — is one of
  *
  *  - `0`: no hit (the paper's sentinel-node pointer),
  *  - tag 1: pointer — bits 2..63 = child node index,
  *  - tag 2: one or two inlined polygon references — bits 2..32 = ref1 + 1,
  *    bits 33..63 = ref2 + 1 (0 = absent); ref bit 0 is the interior flag.
  *    Every ref of an id up to [[repro.core.PolygonRef.MaxPolygonId]] is at
  *    most 2^31 - 3, so `ref + 1` fits the 31-bit field,
  *  - tag 3: offset into the [[LookupTable]] (>= 3 references).
  */
object TaggedEntry {
  final val NoHit = 0L

  final val TagPointer = 1L
  final val TagInline  = 2L
  final val TagOffset  = 3L

  @inline def tag(e: Long): Long = e & 3L

  @inline def pointer(nodeIdx: Int): Long = (nodeIdx.toLong << 2) | TagPointer
  @inline def pointerTarget(e: Long): Int = (e >>> 2).toInt

  @inline def inline1(ref1: Int): Long =
    ((ref1.toLong + 1) << 2) | TagInline
  @inline def inline2(ref1: Int, ref2: Int): Long =
    ((ref2.toLong + 1) << 33) | ((ref1.toLong + 1) << 2) | TagInline
  @inline def inlineRef1(e: Long): Int = (((e >>> 2) & 0x7fffffffL) - 1).toInt
  /** -1 if absent. */
  @inline def inlineRef2(e: Long): Int = ((e >>> 33) - 1).toInt

  @inline def offset(off: Int): Long = (off.toLong << 2) | TagOffset
  @inline def offsetValue(e: Long): Int = (e >>> 2).toInt

  /** True iff value entry `e` holds a candidate ref: the paper's
    * expensive cell ([[repro.core.RefList.isExpensive]]), read from the
    * entry without decoding it. A no-hit entry holds none.
    */
  def isExpensive(e: Long, lut: LookupTable): Boolean = tag(e) match {
    case TagInline =>
      !PolygonRef.isInterior(inlineRef1(e)) || {
        val r2 = inlineRef2(e)
        r2 >= 0 && !PolygonRef.isInterior(r2)
      }
    case TagOffset =>
      val off = offsetValue(e)
      lut(off + 1 + lut(off)) > 0
    case _ => false
  }

  /** Encode a (non-empty) reference list as a value entry, interning into
    * `lut` when more than two references exist.
    */
  def encode(refs: RefList, lut: LookupTable): Long = refs.size match {
    case 0 => NoHit
    case 1 => inline1(refs.refs(0))
    case 2 => inline2(refs.refs(0), refs.refs(1))
    case _ => offset(lut.internAll(refs))
  }

  /** Write the polygon references of value entry `e` into the caller-owned
    * `buf` and return how many there are (0 for no hit). A lookup-table
    * entry yields its true hits, then its candidates. `buf` must hold every
    * reference: max(2, #polygons) always suffices. The Spark operator and
    * tests decode here; the two join kernels decode inline instead, in one
    * loop, because a buffered decode made them slower (see
    * [[repro.core.Join]]).
    */
  def refsInto(e: Long, lut: LookupTable, buf: Array[Int]): Int = tag(e) match {
    case TagInline =>
      buf(0) = inlineRef1(e)
      val r2 = inlineRef2(e)
      if (r2 < 0) 1 else { buf(1) = r2; 2 }
    case TagOffset =>
      val off = offsetValue(e)
      val nT = lut(off)
      val nC = lut(off + 1 + nT)
      var k = 0
      while (k < nT) { buf(k) = PolygonRef(lut(off + 1 + k), interior = true); k += 1 }
      k = 0
      while (k < nC) { buf(nT + k) = PolygonRef(lut(off + 2 + nT + k), interior = false); k += 1 }
      nT + nC
    case _ => 0
  }
}
