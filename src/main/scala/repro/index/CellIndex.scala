package repro.index

import repro.metrics.ProbeCounter

/** Common probe interface over super-covering cells so the join kernels and
  * benchmarks treat ACT, the sorted vector (LB) and the B-tree (GBT)
  * uniformly: map a level-30 (leaf) cell id to the tagged value entry of
  * the unique super-covering cell containing it, or
  * [[repro.act.TaggedEntry.NoHit]].
  *
  * Probing writes nothing on the index: each probe counts its accesses in a
  * caller-owned [[ProbeCounter]], so any number of threads can probe one
  * index. A kernel call adds its counter to the index's own counter once,
  * at the end, through [[record]].
  */
trait CellIndex extends Serializable {
  /** Probe with the query point's leaf cell id, counting the probe's
    * accesses (the paper's per-point access metric, and its depth) into `m`.
    */
  def probe(leafId: Long, m: ProbeCounter): Long

  /** The index's own counter: one-argument probes count into it, and
    * [[record]] adds callers' counters to it.
    */
  private val own = new ProbeCounter

  /** Probe counting into the index's own counter: for one thread at a time. */
  final def probe(leafId: Long): Long = probe(leafId, own)

  /** Accesses of one-argument probes and recorded counters since the last
    * [[resetMetrics]]. Read it after the probing threads have finished.
    */
  def accessCount: Long = own.accesses

  def resetMetrics(): Unit = synchronized { own.accesses = 0L }

  /** Add the accesses counted in `m` to [[accessCount]]; safe from any thread. */
  def record(m: ProbeCounter): Unit = synchronized { own.accesses += m.accesses }

  /** In-memory size estimate in bytes, matching how the paper sizes each
    * structure (arrays of 8-byte slots / 16-byte pairs / 256-byte nodes).
    */
  def sizeBytes: Long
}
