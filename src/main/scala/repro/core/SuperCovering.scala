package repro.core

import repro.geo.{CellRelation, Polygon}
import repro.grid.{CellId, Covering}
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

/** The paper's *super covering* (§3.1.1, Listing 1): one disjoint set of
  * multi-resolution cells approximating an entire polygon set, each cell
  * carrying a [[RefList]] of `(polygonId, interiorFlag)` references.
  *
  * Cells are kept as two sorted arrays, cell ids in one and their refs in
  * the other; because stored cells are pairwise disjoint, containment
  * queries are O(log n) neighbour lookups on the id order (S2CellUnion-style
  * range arithmetic). Training (§3.3.1), the one change after the build and
  * refinement, splits cells one at a time: a split base cell is marked dead,
  * and the cells training creates are kept in a small `TreeMap` beside the
  * arrays. Every query sees the two merged, and [[ActIndex.train]] folds
  * them back into the arrays ([[fold]]) when it returns.
  *
  * Invariant: the live base cells and the created cells are pairwise
  * disjoint (no cell contains another), and no ref list is empty. Created
  * cells lie inside dead base cells.
  */
final class SuperCovering private (private var ids: Array[Long],
                                   private var refs: Array[RefList]) extends Serializable {
  /** Base cells that training split. */
  private val dead = new java.util.BitSet
  /** Cells training created, by id. */
  private val created = new java.util.TreeMap[Long, RefList]()

  def cellCount: Int = ids.length - dead.cardinality + created.size

  /** The refs stored for `cell`, or empty if `cell` is not stored. */
  def refsOf(cell: Long): RefList = {
    val i = liveIndexOf(cell)
    if (i >= 0) refs(i) else created.getOrDefault(cell, RefList.empty)
  }

  /** The index of `cell` among the base cells, if it is stored there and
    * training has not split it, or -1.
    */
  private def liveIndexOf(cell: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, cell)
    if (i >= 0 && !dead.get(i)) i else -1
  }

  /** The (unique, by disjointness) stored cell containing leaf id `leaf`
    * and its refs, or `(0, RefList.empty)` if none: one search, for
    * training.
    */
  def cellWithRefs(leaf: Long): (Long, RefList) = {
    val i = baseIndexContaining(leaf)
    if (i < 0) return (0L, RefList.empty) // created cells lie inside base cells
    if (!dead.get(i)) return (ids(i), refs(i))
    val fl = created.floorEntry(leaf)
    if (fl != null && CellId.contains(fl.getKey, leaf)) return (fl.getKey, fl.getValue)
    val ce = created.ceilingEntry(leaf)
    if (ce != null && CellId.contains(ce.getKey, leaf)) return (ce.getKey, ce.getValue)
    (0L, RefList.empty)
  }

  /** The stored cell containing leaf id `leaf`, or 0 if none. */
  def cellContainingLeaf(leaf: Long): Long = cellWithRefs(leaf)._1

  /** The index of the base cell, dead or alive, containing leaf id `leaf`,
    * or -1. A cell's own id can sort after a leaf inside it, so both
    * id-order neighbours are checked.
    */
  private def baseIndexContaining(leaf: Long): Int = {
    val r = java.util.Arrays.binarySearch(ids, leaf)
    if (r >= 0) return r
    val next = -r - 1
    if (next > 0 && CellId.contains(ids(next - 1), leaf)) next - 1
    else if (next < ids.length && CellId.contains(ids(next), leaf)) next
    else -1
  }

  /** Replace stored `cell` by its four children, each with the cell's refs
    * reclassified against it ([[SuperCovering.children]]); children outside
    * every referenced polygon are not stored. Returns the children's refs in
    * child order, empty for those not stored. Training's step (§3.3.1).
    */
  def split(cell: Long, polys: Array[Polygon]): Array[RefList] = {
    val i = liveIndexOf(cell)
    val cellRefs = if (i >= 0) { dead.set(i); refs(i) } else created.remove(cell)
    val children = SuperCovering.children(cell, cellRefs, polys)
    var k = 0
    while (k < 4) {
      if (!children(k).isEmpty) created.put(CellId.child(cell, k), children(k))
      k += 1
    }
    children
  }

  /** Iterate (cellId, refs) in id order: a dead base cell's place is taken
    * by the created cells inside it.
    */
  def foreachCell(f: (Long, RefList) => Unit): Unit = {
    var i = 0
    while (i < ids.length) {
      if (!dead.get(i)) f(ids(i), refs(i))
      else created.subMap(CellId.rangeMin(ids(i)), true, CellId.rangeMax(ids(i)), true)
        .forEach((id, r) => f(id, r))
      i += 1
    }
  }

  /** The stored cells in id order, as cell ids and their refs. Until
    * training splits a cell these are the stored arrays themselves, so
    * callers must not modify them.
    */
  def toSortedArrays: (Array[Long], Array[RefList]) =
    if (dead.isEmpty && created.isEmpty) (ids, refs)
    else {
      val outIds = new Array[Long](cellCount)
      val outRefs = new Array[RefList](cellCount)
      var i = 0
      foreachCell { (id, r) => outIds(i) = id; outRefs(i) = r; i += 1 }
      (outIds, outRefs)
    }

  /** Fold training's overlay into the sorted arrays: the dead base cells
    * leave them, and the created cells take their places.
    */
  private[core] def fold(): Unit = {
    val (ids, refs) = toSortedArrays
    replaceWith(ids, refs)
  }

  /** Make `ids` and `refs`, sorted and disjoint, the stored cells. */
  private def replaceWith(ids: Array[Long], refs: Array[RefList]): Unit = {
    this.ids = ids
    this.refs = refs
    dead.clear()
    created.clear()
  }
}

object SuperCovering {

  /** Build a super covering from per-polygon coverings and interior
    * coverings (Listing 1, Figure 4): the minimal disjoint refinement of all
    * input cells, each output cell carrying the refs of every input cell
    * that contains it (boundary refs from `coverings`, interior refs from
    * `interiors`). An ancestor input thus leaves its refs on the difference
    * cells around each descendant input, and on the descendant itself.
    *
    * One sort by cell id, then one sweep down from the root, like S2's
    * `S2CellUnion::Normalize`: the inputs inside a cell form one block of
    * the sorted ids, and a cell's own id falls in none of its children's
    * ranges, so each child's block takes two binary searches.
    */
  def build(coverings: Seq[(Int, Vector[Long])],
            interiors: Seq[(Int, Vector[Long])]): SuperCovering = {
    val inputs = coverings.map((_, false)) ++ interiors.map((_, true))
    val n = inputs.iterator.map(_._1._2.size).sum
    val cellOf = new Array[Long](n)
    val refOf = new Array[Int](n)
    var i = 0
    for (((pid, cells), interior) <- inputs; cell <- cells) {
      cellOf(i) = cell; refOf(i) = PolygonRef(pid, interior); i += 1
    }
    // The distinct input cells in id order, and the refs of each: an input
    // packed as (its cell's rank, ref) sorts into one run per cell.
    val ids = cellOf.clone()
    java.util.Arrays.sort(ids)
    var m = 0
    i = 0
    while (i < n) {
      if (m == 0 || ids(m - 1) != ids(i)) { ids(m) = ids(i); m += 1 }
      i += 1
    }
    val keyed = Array.tabulate(n)(k =>
      java.util.Arrays.binarySearch(ids, 0, m, cellOf(k)).toLong << 32 | refOf(k))
    java.util.Arrays.sort(keyed)
    val refsAt = new Array[RefList](m)
    i = 0
    while (i < n) {
      val rank = (keyed(i) >>> 32).toInt
      var j = i
      while (j < n && (keyed(j) >>> 32).toInt == rank) j += 1
      refsAt(rank) = RefList.of(Array.tabulate(j - i)(k => keyed(i + k).toInt))
      i = j
    }

    def firstAtLeast(id: Long, lo: Int, hi: Int): Int = {
      val r = java.util.Arrays.binarySearch(ids, lo, hi, id)
      if (r >= 0) r else -r - 1
    }
    val outIds = mutable.ArrayBuilder.make[Long]
    val outRefs = mutable.ArrayBuilder.make[RefList]
    // `ids(lo until hi)` are the inputs inside `cell`, and `inherited` holds
    // the refs of the inputs that strictly contain it.
    def emit(cell: Long, inherited: RefList, lo: Int, hi: Int): Unit = {
      val own = java.util.Arrays.binarySearch(ids, lo, hi, cell)
      val refs = if (own >= 0) inherited.merge(refsAt(own)) else inherited
      if (hi - lo == (if (own >= 0) 1 else 0)) {
        if (!refs.isEmpty) { outIds += cell; outRefs += refs }
      } else {
        var k = 0
        while (k < 4) {
          val c = CellId.child(cell, k)
          emit(c, refs, firstAtLeast(CellId.rangeMin(c), lo, hi), firstAtLeast(CellId.rangeMax(c) + 1, lo, hi))
          k += 1
        }
      }
    }
    emit(CellId.fromPath60(0L, 0), RefList.empty, 0, m)
    fromSortedArrays(outIds.result(), outRefs.result())
  }

  /** A super covering of the cells `ids`, which must be sorted and
    * pairwise disjoint, with `refs(i)` the non-empty refs of `ids(i)`.
    */
  private[core] def fromSortedArrays(ids: Array[Long], refs: Array[RefList]): SuperCovering =
    new SuperCovering(ids, refs)

  /** Per-polygon coverings and interior coverings, computed in parallel
    * over polygons like the paper — the input of [[build]].
    */
  def coverings(polys: Array[Polygon]): (Seq[(Int, Vector[Long])], Seq[(Int, Vector[Long])]) =
    (polys.par.map(p => p.id -> Covering.covering(p)).seq.toSeq,
     polys.par.map(p => p.id -> Covering.interiorCovering(p)).seq.toSeq)

  /** The per-polygon coverings merged (serially, like the paper). */
  def ofPolygons(polys: Array[Polygon]): SuperCovering = {
    val (covs, ints) = coverings(polys)
    build(covs, ints)
  }

  /** Refine `sc` in place so no *boundary* cell (a cell with >=1 candidate
    * ref) is coarser than `minLevel` (§3.2): each such cell is split through
    * [[children]] until its expensive descendants reach `minLevel`
    * (outside descendants dropped, inside ones become true hits).
    *
    * Guarantees any false positive of the approximate join lies within
    * `diagonalAtLevel(minLevel)` of the matched polygon. `polys(id)` must be
    * the polygon with that id.
    */
  def refineToPrecision(sc: SuperCovering, minLevel: Int, polys: Array[Polygon]): Unit = {
    val (ids, refs) = sc.toSortedArrays
    // Every expensive cell is reclassified first: conflict resolution
    // (Figure 4) copies an ancestor's candidate refs onto difference cells
    // that may not touch the referenced polygon at all; reclassification
    // drops those (Outside) and upgrades fully-contained ones to true hits.
    // Each expensive cell then refines on its own, in parallel, into one run
    // of cells in child order, which is id order inside the cell's range.
    val runs = ids.indices.filter(i => refs(i).isExpensive).toArray.par.map { i =>
      val runIds = mutable.ArrayBuilder.make[Long]
      val runRefs = mutable.ArrayBuilder.make[RefList]
      def refine(cell: Long, r: RefList): Unit =
        if (r.isExpensive && CellId.level(cell) < minLevel) {
          val cs = children(cell, r, polys)
          var k = 0
          while (k < 4) { refine(CellId.child(cell, k), cs(k)); k += 1 }
        } else if (!r.isEmpty) { runIds += cell; runRefs += r }
      refine(ids(i), reclassify(ids(i), refs(i), polys))
      (runIds.result(), runRefs.result())
    }.toArray
    // Splice: each run takes its cell's place between the untouched cells.
    val n = ids.length - runs.length + runs.iterator.map(_._1.length).sum
    val outIds = new Array[Long](n)
    val outRefs = new Array[RefList](n)
    var o = 0
    var e = 0
    var i = 0
    while (i < ids.length) {
      if (refs(i).isExpensive) {
        val (runIds, runRefs) = runs(e)
        System.arraycopy(runIds, 0, outIds, o, runIds.length)
        System.arraycopy(runRefs, 0, outRefs, o, runRefs.length)
        o += runIds.length
        e += 1
      } else { outIds(o) = ids(i); outRefs(o) = refs(i); o += 1 }
      i += 1
    }
    sc.replaceWith(outIds, outRefs)
  }

  /** The split step shared by precision refinement (§3.2) and training
    * (§3.3.1): the refs of `cell`'s four children, in child order, each
    * `refs` reclassified against that child.
    */
  def children(cell: Long, refs: RefList, polys: Array[Polygon]): Array[RefList] =
    Array.tabulate(4)(k => reclassify(CellId.child(cell, k), refs, polys))

  /** Classify cell `c` against each referenced polygon: keep interior refs
    * (the cell is inside wherever its ancestor was), and re-run the
    * cell-polygon relation for candidate refs. `refs` is normalized and
    * reclassifying keeps each ref's polygon id, so the result needs no
    * renormalizing.
    */
  private[core] def reclassify(c: Long, refs: RefList, polys: Array[Polygon]): RefList = {
    val b = CellId.bounds(c)
    val out = new Array[Int](refs.size)
    var n = 0
    var i = 0
    while (i < refs.size) {
      val r = refs.refs(i)
      if (PolygonRef.isInterior(r)) { out(n) = r; n += 1 }
      else polys(PolygonRef.polygonId(r)).relation(b) match {
        case CellRelation.Inside   => out(n) = PolygonRef.asInterior(r); n += 1
        case CellRelation.Boundary => out(n) = r; n += 1
        case CellRelation.Outside  => ()
      }
      i += 1
    }
    RefList(if (n == out.length) out else java.util.Arrays.copyOf(out, n))
  }
}
