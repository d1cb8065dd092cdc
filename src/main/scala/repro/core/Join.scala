package repro.core

import repro.act.{ACT, LookupTable, TaggedEntry}
import repro.geo.Polygon
import repro.grid.CellId
import repro.index.CellIndex
import repro.metrics.ProbeCounter

/** Probe-phase statistics mirroring the paper's reported metrics. */
final class JoinStats {
  var points: Long = 0L        // points probed
  var matchedPoints: Long = 0L // points with >= 1 join partner
  var trueHitPairs: Long = 0L  // pairs identified in the filter phase
  var candidatePairs: Long = 0L// candidate pairs joined: untested (approx.) or past PIP (exact)
  var pipTests: Long = 0L      // refinement PIP tests performed
  var sthPoints: Long = 0L     // points resolved by solely true hits (§4.2)

  /** Solely-true-hits percentage: points whose entry held no candidate
    * ref (misses included), over all points probed.
    */
  def sthPercent: Double =
    if (points == 0) 0.0 else 100.0 * sthPoints / points
  override def toString =
    f"points=$points matched=$matchedPoints true=$trueHitPairs cand=$candidatePairs pip=$pipTests sth=$sthPercent%.1f%%"
}

/** The paper's join kernels (Listing 3) over any [[CellIndex]].
  *
  * Like the paper's evaluation (§4 "Datasets and Queries") the kernels
  * count points per polygon instead of materializing pairs; the Spark
  * operator ([[repro.spark.SpatialJoin]]) materializes pairs instead. Both
  * resolve each reference of a probed point by one rule, [[joins]].
  *
  * Each call counts node accesses and PIP edges in its own [[ProbeCounter]]
  * and records it once at the end, so threads may run the kernels over one
  * shared index, each with its own `counts` array.
  */
object Join {

  /** Approximate join (`__APPROX` in Listing 3): candidate hits are emitted
    * as hits; no PIP is ever run. `counts` must have >= #polygons slots.
    *
    * Placing each point is the caller's job: `leafIds` must come from
    * points for which `CellId.placeable` holds. `CellId.fromPoint` clamps
    * any other point into the world square, so its leaf can join polygons
    * on the world's border. The Spark operator probes such points as misses
    * (DESIGN.md §3).
    */
  def approximateCounts(index: CellIndex, lut: LookupTable,
                        leafIds: Array[Long], counts: Array[Long]): JoinStats =
    probeCounts(index, lut, exact = false, null, null, leafIds, null, counts)

  /** Exact join: candidate hits are refined with a PIP test (Listing 3
    * without `__APPROX`). `polys` must be indexed by polygon id. The leaf
    * ids obey [[approximateCounts]]'s contract: a clamped out-of-world leaf
    * can reach a true hit of a border polygon, which joins without PIP.
    */
  def exactCounts(index: CellIndex, lut: LookupTable,
                  xs: Array[Double], ys: Array[Double], leafIds: Array[Long],
                  polys: Array[Polygon], counts: Array[Long]): JoinStats =
    probeCounts(index, lut, exact = true, xs, ys, leafIds, polys, counts)

  /** Listing 3's rule for one reference `ref` of the entry that point
    * (`x`, `y`) probed: a true hit joins; a candidate joins untested in the
    * approximate join, and in the exact join only if the point passes PIP
    * against `polys(id)`. Counts the decision in `st` and PIP edges in `m`.
    */
  @inline def joins(ref: Int, exact: Boolean, x: Double, y: Double,
                    polys: Array[Polygon], st: JoinStats, m: ProbeCounter): Boolean =
    if (PolygonRef.isInterior(ref)) { st.trueHitPairs += 1; true }
    else candidateJoins(PolygonRef.polygonId(ref), exact, x, y, polys, st, m)

  /** The candidate half of [[joins]], for polygon id `pid`. */
  @inline private def candidateJoins(pid: Int, exact: Boolean, x: Double, y: Double,
                                     polys: Array[Polygon], st: JoinStats,
                                     m: ProbeCounter): Boolean = {
    if (exact) {
      st.pipTests += 1
      if (!polys(pid).contains(x, y, m)) return false
    }
    st.candidatePairs += 1
    true
  }

  /** Listing 3, with `exact = false` as `__APPROX`. Lookup-table true hits
    * join without the rule's test; every other reference goes through
    * [[joins]]. `xs`, `ys` and `polys` are read only when `exact`.
    *
    * The entry is decoded inline, not through [[TaggedEntry.refsInto]]: a
    * buffered decode made the approximate kernels 15–18 % slower on a
    * 4-vCPU host (ROADMAP item 1).
    */
  private def probeCounts(index: CellIndex, lut: LookupTable, exact: Boolean,
                          xs: Array[Double], ys: Array[Double], leafIds: Array[Long],
                          polys: Array[Polygon], counts: Array[Long]): JoinStats = {
    val st = new JoinStats
    val m = new ProbeCounter
    var i = 0
    while (i < leafIds.length) {
      val e = index.probe(leafIds(i), m)
      val x = if (exact) xs(i) else 0.0
      val y = if (exact) ys(i) else 0.0
      val pairsBefore = st.trueHitPairs + st.candidatePairs
      val refinedBefore = st.candidatePairs + st.pipTests
      val tag = TaggedEntry.tag(e)
      if (tag == TaggedEntry.TagInline) {
        val r1 = TaggedEntry.inlineRef1(e)
        if (joins(r1, exact, x, y, polys, st, m)) counts(PolygonRef.polygonId(r1)) += 1
        val r2 = TaggedEntry.inlineRef2(e)
        if (r2 >= 0 && joins(r2, exact, x, y, polys, st, m)) counts(PolygonRef.polygonId(r2)) += 1
      } else if (tag == TaggedEntry.TagOffset) {
        var off = TaggedEntry.offsetValue(e)
        val nT = lut(off); off += 1
        var k = 0
        while (k < nT) { counts(lut(off)) += 1; off += 1; k += 1 }
        st.trueHitPairs += nT
        val nC = lut(off); off += 1
        k = 0
        while (k < nC) {
          val pid = lut(off)
          if (candidateJoins(pid, exact, x, y, polys, st, m)) counts(pid) += 1
          off += 1; k += 1
        }
      }
      if (st.trueHitPairs + st.candidatePairs > pairsBefore) st.matchedPoints += 1
      if (st.candidatePairs + st.pipTests == refinedBefore) st.sthPoints += 1
      i += 1
    }
    st.points += leafIds.length
    index.record(m)
    Polygon.record(m)
    st
  }

  /** Reference join: full PIP against every polygon whose MBR contains the
    * point — the trusted naive implementation tests compare against.
    */
  def naiveCounts(xs: Array[Double], ys: Array[Double],
                  polys: Array[Polygon], counts: Array[Long]): JoinStats = {
    val st = new JoinStats
    var i = 0
    while (i < xs.length) {
      st.points += 1
      var matched = false
      var p = 0
      while (p < polys.length) {
        val poly = polys(p)
        if (poly.mbr.containsPoint(xs(i), ys(i))) {
          st.pipTests += 1
          if (poly.contains(xs(i), ys(i))) {
            counts(poly.id) += 1
            matched = true
          }
        }
        p += 1
      }
      if (matched) st.matchedPoints += 1
      i += 1
    }
    st
  }

  /** Naive pair materialization for small test inputs. */
  def naivePairs(xs: Array[Double], ys: Array[Double],
                 polys: Array[Polygon]): Seq[(Int, Int)] = {
    for {
      i <- xs.indices
      p <- polys.toSeq
      if p.contains(xs(i), ys(i))
    } yield (i, p.id)
  }
}

/** A built polygon index: the super covering plus its ACT plus the shared
  * lookup table — the object the accurate algorithm trains (§3.3.1). The
  * Spark operator broadcasts only its [[probeSide]].
  *
  * Polygon ids are array positions: `polys(id)` is the polygon with that
  * id, which the build checks.
  */
final class ActIndex(val polys: Array[Polygon],
                     val sc: SuperCovering,
                     val lut: LookupTable,
                     val act: ACT) extends Serializable {

  ActIndex.requireIdsArePositions(polys)

  /** Train with historical points (§3.3.1): a training point hitting an
    * expensive cell (>= 1 candidate ref) replaces that cell with its four
    * direct children, reclassified against the referenced polygons by
    * [[SuperCovering.children]], the split step precision refinement takes
    * too — popular areas end up finer-grained. One hit refines one level;
    * points hitting an already-refined child refine it further, so the
    * index adapts progressively to the point distribution. Leaf cells
    * (`CellId.MaxLevel`) never split.
    *
    * The cells being trained live in a `TreeMap` of this call, copied from
    * the super covering, and go back into it when the call returns. Each
    * point first probes the ACT, which holds every stored cell's refs, and
    * looks its cell up in the map only when the entry it finds holds a
    * candidate ([[TaggedEntry.isExpensive]]): points on cheap cells, most of
    * them once the index has adapted, cost one probe.
    *
    * `maxBytes` is the paper's memory budget: "in practice, we would stop
    * refining the index once a user-defined memory budget is exhausted"
    * (§3.3.1) — refinement stops once the ACT grows past it.
    *
    * Returns the number of cell refinements performed.
    */
  def train(leafIds: Array[Long], maxBytes: Long = Long.MaxValue): Long = {
    val cells = new java.util.TreeMap[Long, RefList]()
    sc.foreachCell((id, refs) => cells.put(id, refs))
    val m = new ProbeCounter
    var refinements = 0L
    var i = 0
    while (i < leafIds.length && act.sizeBytes <= maxBytes) {
      val leaf = leafIds(i)
      if (TaggedEntry.isExpensive(act.probe(leaf, m), lut)) {
        // The stored cell containing `leaf`: its id sorts on either side.
        val below = cells.floorEntry(leaf)
        val cell = if (below != null && CellId.contains(below.getKey, leaf)) below.getKey
                   else cells.ceilingKey(leaf)
        if (CellId.level(cell) < CellId.MaxLevel) {
          val children = SuperCovering.children(cell, cells.remove(cell), polys)
          var k = 0
          while (k < 4) {
            val child = CellId.child(cell, k)
            if (!children(k).isEmpty) cells.put(child, children(k))
            act.writeCell(child, TaggedEntry.encode(children(k), lut))
            k += 1
          }
          refinements += 1
        }
      }
      i += 1
    }
    sc.replaceWith(cells.keySet.stream.mapToLong(id => id).toArray,
                   cells.values.toArray(new Array[RefList](0)))
    refinements
  }

  def sizeBytes: Long = act.sizeBytes + lut.sizeBytes

  /** What probing reads — polygons, lookup table and ACT — without the
    * build-time super covering. It shares this index's structures, so take
    * a fresh one after [[train]] has changed them.
    */
  def probeSide: ProbeSide = new ProbeSide(polys, lut, act)
}

/** The part of an [[ActIndex]] that a join probes: the value the Spark
  * operator broadcasts (paper §3.4, an immutable index probed by point
  * batches). `polys(id)` is the polygon with that id.
  */
final class ProbeSide(val polys: Array[Polygon], val lut: LookupTable,
                      val act: ACT) extends Serializable

object ActIndex {

  /** Build the full pipeline: per-polygon coverings → super covering →
    * (optional) precision refinement → ACT.
    */
  def build(polys: Array[Polygon], bitsPerLevel: Int = 8,
            precisionMeters: Option[Double] = None): ActIndex = {
    requireIdsArePositions(polys)
    val sc = SuperCovering.ofPolygons(polys)
    precisionMeters.foreach { p =>
      SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(p), polys)
    }
    fromSuperCovering(polys, sc, bitsPerLevel)
  }

  def fromSuperCovering(polys: Array[Polygon], sc: SuperCovering,
                        bitsPerLevel: Int): ActIndex = {
    val lut = new LookupTable
    val (ids, entries) = ActIndex.entries(sc, lut)
    new ActIndex(polys, sc, lut, ACT.build(bitsPerLevel, ids, entries))
  }

  /** Materialize the (id, taggedEntry) pairs of a super covering — the
    * input every baseline structure (LB, GBT) indexes.
    */
  def entries(sc: SuperCovering, lut: LookupTable): (Array[Long], Array[Long]) = {
    val (ids, refs) = sc.toSortedArrays
    (ids, refs.map(r => TaggedEntry.encode(r, lut)))
  }

  /** The polygon-id rule the kernels and the Spark operator rely on:
    * `polys(id)` is the polygon with that id, so ids are exactly 0..n-1.
    */
  def requireIdsArePositions(polys: Array[Polygon]): Unit = {
    var i = 0
    while (i < polys.length) {
      require(polys(i).id == i, s"polygon ids must equal array positions 0..${polys.length - 1}, " +
        s"but position $i holds polygon id ${polys(i).id}")
      i += 1
    }
  }
}
