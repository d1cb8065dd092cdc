package repro.act

import repro.core.RefList

/** The references of a value entry as a normalized [[RefList]], through
  * [[TaggedEntry.refsInto]]: what tests compare entries by.
  */
object EntryRefs {
  def apply(e: Long, lut: LookupTable): RefList = {
    val buf = new Array[Int](math.max(2, lut.sizeInts))
    RefList.of(buf.take(TaggedEntry.refsInto(e, lut, buf)))
  }
}
