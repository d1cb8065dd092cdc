package repro.core

import repro.geo.{CellRelation, Polygon}
import repro.grid.{CellId, Covering}
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

/** The paper's *super covering* (§3.1.1, Listing 1): one disjoint set of
  * multi-resolution cells approximating an entire polygon set, each cell
  * carrying a [[RefList]] of `(polygonId, interiorFlag)` references.
  *
  * Cells are kept in a `TreeMap` keyed by cell id; because stored cells are
  * pairwise disjoint, containment queries are O(log n) neighbour lookups on
  * the id order (S2CellUnion-style range arithmetic).
  */
final class SuperCovering extends Serializable {
  /** cellId -> refs. Invariant: keys pairwise disjoint (no cell contains
    * another), no empty ref lists. Only this class and its companion
    * change it.
    */
  private[core] val cells = new java.util.TreeMap[Long, RefList]()

  def cellCount: Int = cells.size

  /** The refs stored for `cell`, or empty if `cell` is not stored. */
  def refsOf(cell: Long): RefList = cells.getOrDefault(cell, RefList.empty)

  /** The (unique, by disjointness) stored cell containing leaf id `leaf`,
    * or 0 if none. Used by index probing fallbacks and training.
    */
  def cellContainingLeaf(leaf: Long): Long = {
    val fl = cells.floorEntry(leaf)
    if (fl != null && CellId.contains(fl.getKey, leaf)) return fl.getKey
    val ce = cells.ceilingEntry(leaf)
    if (ce != null && CellId.contains(ce.getKey, leaf)) return ce.getKey
    0L
  }

  /** All stored cells strictly contained in `cell` (descendants). */
  private def descendantsOf(cell: Long): List[Long] = {
    val lo = CellId.rangeMin(cell)
    val hi = CellId.rangeMax(cell)
    val out = List.newBuilder[Long]
    val it = cells.subMap(lo, true, hi, true).keySet().iterator()
    while (it.hasNext) {
      val k = it.next()
      if (k != cell) out += k
    }
    out.result()
  }

  /** The stored strict ancestor of `cell`, if any. An ancestor's own id can
    * fall outside `cell`'s id range, so check both id-order neighbours.
    */
  private def ancestorOf(cell: Long): Option[Long] = {
    val fl = cells.floorEntry(cell)
    if (fl != null && fl.getKey != cell && CellId.contains(fl.getKey, cell)) return Some(fl.getKey)
    val ce = cells.ceilingEntry(cell)
    if (ce != null && ce.getKey != cell && CellId.contains(ce.getKey, cell)) return Some(ce.getKey)
    None
  }

  /** Insert `cell` with `refs`, maintaining disjointness via the paper's
    * precision-preserving conflict resolution (Figure 4): on a conflict
    * between ancestor c1 and descendant c2, c1 is replaced by c2 plus the
    * difference d = c1 \ c2, with c1's references copied onto both.
    *
    * Unlike Listing 1's single-conflict sketch, this insert resolves
    * *multiple* simultaneous descendants (which arise when polygons overlap
    * repeatedly) by recursing into child cells.
    */
  def insert(cell: Long, refs: RefList): Unit = {
    if (refs.isEmpty) return
    val existing = cells.get(cell)
    if (existing != null) { // duplicate cell: merge reference lists
      cells.put(cell, existing.merge(refs))
      return
    }
    ancestorOf(cell) match {
      case Some(c1) =>
        // Existing cell contains the new one: split c1 into (difference, c2)
        // keeping its refs on every piece; then merge new refs into c2.
        val c1Refs = cells.remove(c1)
        CellId.difference(c1, cell).foreach(d => cells.put(d, c1Refs))
        cells.put(cell, c1Refs.merge(refs))
      case None =>
        val desc = descendantsOf(cell)
        if (desc.isEmpty) {
          cells.put(cell, refs)
        } else {
          // New cell contains existing cell(s): push the new refs down by
          // splitting into children until conflicts vanish (equivalent to
          // iterated difference, but handles several descendants at once).
          var k = 0
          while (k < 4) {
            insert(CellId.child(cell, k), refs)
            k += 1
          }
        }
    }
  }

  /** Replace stored `cell` by its four children, each with the cell's refs
    * reclassified against it ([[SuperCovering.children]]); children outside
    * every referenced polygon are not stored. Returns the children's refs in
    * child order, empty for those not stored. Training's step (§3.3.1).
    */
  def split(cell: Long, polys: Array[Polygon]): Array[RefList] = {
    val children = SuperCovering.children(cell, cells.remove(cell), polys)
    var k = 0
    while (k < 4) {
      if (!children(k).isEmpty) cells.put(CellId.child(cell, k), children(k))
      k += 1
    }
    children
  }

  /** Iterate (cellId, refs) in id order. */
  def foreachCell(f: (Long, RefList) => Unit): Unit = {
    val it = cells.entrySet().iterator()
    while (it.hasNext) { val e = it.next(); f(e.getKey, e.getValue) }
  }

  def toSortedArrays: (Array[Long], Array[RefList]) = {
    val ids = new Array[Long](cells.size)
    val rs  = new Array[RefList](cells.size)
    var i = 0
    foreachCell { (id, r) => ids(i) = id; rs(i) = r; i += 1 }
    (ids, rs)
  }
}

object SuperCovering {

  /** Build a super covering from per-polygon coverings and interior
    * coverings (Listing 1): insert all covering cells with boundary refs,
    * then all interior-covering cells with interior refs.
    */
  def build(coverings: Seq[(Int, Vector[Long])],
            interiors: Seq[(Int, Vector[Long])]): SuperCovering = {
    val sc = new SuperCovering
    for ((pid, cov) <- coverings; cell <- cov)
      sc.insert(cell, RefList.single(PolygonRef(pid, interior = false)))
    for ((pid, interior) <- interiors; cell <- interior)
      sc.insert(cell, RefList.single(PolygonRef(pid, interior = true)))
    sc
  }

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
    // Only the cells the recursion ends at are stored: putting and removing
    // every intermediate cell would cost a map round trip per split.
    def refine(cell: Long, refs: RefList): Unit =
      if (refs.isExpensive && CellId.level(cell) < minLevel) {
        val cs = children(cell, refs, polys)
        var k = 0
        while (k < 4) { refine(CellId.child(cell, k), cs(k)); k += 1 }
      } else if (!refs.isEmpty) sc.cells.put(cell, refs)
    val expensive = mutable.ArrayBuffer.empty[Long]
    sc.foreachCell { (id, refs) =>
      if (refs.isExpensive) expensive += id
    }
    // Every expensive cell is reclassified first: conflict resolution
    // (Figure 4) copies an ancestor's candidate refs onto difference cells
    // that may not touch the referenced polygon at all; reclassification
    // drops those (Outside) and upgrades fully-contained ones to true hits.
    expensive.foreach(id => refine(id, reclassify(id, sc.cells.remove(id), polys)))
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
  private def reclassify(c: Long, refs: RefList, polys: Array[Polygon]): RefList = {
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
