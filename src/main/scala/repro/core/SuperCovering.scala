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
    * another), no empty ref lists.
    */
  val cells = new java.util.TreeMap[Long, RefList]()

  def cellCount: Int = cells.size

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
    * ref) is coarser than `minLevel` (§3.2): each such cell is replaced by
    * its descendants at `minLevel`, classified per referenced polygon
    * (outside descendants dropped, inside ones become true hits).
    *
    * Guarantees any false positive of the approximate join lies within
    * `diagonalAtLevel(minLevel)` of the matched polygon. `polys(id)` must be
    * the polygon with that id.
    */
  def refineToPrecision(sc: SuperCovering, minLevel: Int, polys: Array[Polygon]): Unit = {
    val expensive = mutable.ArrayBuffer.empty[Long]
    sc.foreachCell { (id, refs) =>
      if (refs.isExpensive) expensive += id
    }
    // Every expensive cell is reclassified: conflict resolution (Figure 4)
    // copies an ancestor's candidate refs onto difference cells that may not
    // touch the referenced polygon at all; reclassification drops those
    // (Outside), upgrades fully-contained ones to true hits, and splits
    // cells still coarser than the precision level.
    expensive.foreach { id =>
      val refs = sc.cells.remove(id)
      if (refs != null) {
        val cleaned = reclassify(id, refs, polys)
        if (!cleaned.isEmpty) {
          if (cleaned.isExpensive && CellId.level(id) < minLevel)
            refineCell(sc, id, cleaned, minLevel, polys)
          else
            sc.cells.put(id, cleaned)
        }
      }
    }
  }

  /** Recursively split `cell` down to `minLevel`, reclassifying candidate
    * refs per descendant. Shared by precision refinement and training.
    */
  private[core] def refineCell(sc: SuperCovering, cell: Long, refs: RefList,
                               toLevel: Int, polys: Array[Polygon]): Unit = {
    if (CellId.level(cell) >= toLevel) {
      if (!refs.isEmpty) sc.cells.put(cell, refs)
      return
    }
    var k = 0
    while (k < 4) {
      val c = CellId.child(cell, k)
      val childRefs = reclassify(c, refs, polys)
      if (!childRefs.isEmpty) {
        if (childRefs.isExpensive) refineCell(sc, c, childRefs, toLevel, polys)
        else sc.cells.put(c, childRefs) // all true hits: no need to go finer
      }
      k += 1
    }
  }

  /** Classify cell `c` against each referenced polygon: keep interior refs
    * (the cell is inside wherever its ancestor was), and re-run the
    * cell-polygon relation for candidate refs.
    */
  private[core] def reclassify(c: Long, refs: RefList, polys: Array[Polygon]): RefList = {
    val b = CellId.bounds(c)
    val out = mutable.ArrayBuffer.empty[Int]
    refs.refs.foreach { r =>
      if (PolygonRef.isInterior(r)) out += r
      else polys(PolygonRef.polygonId(r)).relation(b) match {
        case CellRelation.Inside   => out += PolygonRef.asInterior(r)
        case CellRelation.Boundary => out += r
        case CellRelation.Outside  => ()
      }
    }
    RefList.of(out.toArray)
  }
}
