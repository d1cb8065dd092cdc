package repro.metrics

/** Work counted by one probing thread: node (or search-step) accesses and
  * PIP edges walked. A probe's depth is the accesses it adds.
  *
  * Caller-owned: a kernel call or a Spark partition allocates one, passes it
  * to every probe and PIP test, and adds the totals to the shared counters
  * once at the end ([[repro.index.CellIndex.record]],
  * [[repro.geo.Polygon.record]]). So probing one index from many threads
  * writes no memory that another thread touches. Serializable because the
  * indexes that own one are broadcast by Java serialization.
  */
final class ProbeCounter extends Serializable {
  var accesses: Long = 0L
  var edges: Long = 0L
}
