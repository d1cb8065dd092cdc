package repro.core

import repro.geo.Polygon
import repro.grid.CellId

/** Listing 1's merge one cell at a time, with Figure 4's conflict
  * resolution at each insert, and §3.2's precision refinement one cell at a
  * time: the reference implementations, over a `TreeMap` of their own, that
  * [[SuperCovering.build]]'s sort-and-sweep merge and
  * [[SuperCovering.refineToPrecision]]'s parallel splice must equal, cell for
  * cell and refs included.
  */
object InsertMerge {

  type Cells = java.util.TreeMap[Long, RefList]

  /** Insert all covering cells with boundary refs, then all
    * interior-covering cells with interior refs.
    */
  def build(coverings: Seq[(Int, Vector[Long])],
            interiors: Seq[(Int, Vector[Long])]): SuperCovering = {
    val cells = new Cells
    for ((pid, cov) <- coverings; cell <- cov)
      insert(cells, cell, RefList(Array(PolygonRef(pid, interior = false))))
    for ((pid, interior) <- interiors; cell <- interior)
      insert(cells, cell, RefList(Array(PolygonRef(pid, interior = true))))
    of(cells)
  }

  /** A super covering holding `cells`. */
  def of(cells: Cells): SuperCovering = {
    val ids = new Array[Long](cells.size)
    val refs = new Array[RefList](cells.size)
    var i = 0
    cells.forEach((id, r) => { ids(i) = id; refs(i) = r; i += 1 })
    SuperCovering.fromSortedArrays(ids, refs)
  }

  /** A `TreeMap` copy of the cells of `sc`. */
  def cellsOf(sc: SuperCovering): Cells = {
    val cells = new Cells
    sc.foreachCell((id, r) => cells.put(id, r))
    cells
  }

  /** Insert `cell` with `refs`, keeping the stored cells disjoint: on a
    * conflict between ancestor c1 and descendant c2, c1 is replaced by c2
    * plus the difference d = c1 \ c2, with c1's references copied onto
    * both. Several descendants (overlapping polygons) are resolved by
    * recursing into child cells.
    */
  def insert(cells: Cells, cell: Long, refs: RefList): Unit = {
    if (refs.isEmpty) return
    val existing = cells.get(cell)
    if (existing != null) { // duplicate cell: merge reference lists
      cells.put(cell, existing.merge(refs))
      return
    }
    ancestorOf(cells, cell) match {
      case Some(c1) =>
        val c1Refs = cells.remove(c1)
        difference(c1, cell).foreach(d => cells.put(d, c1Refs))
        cells.put(cell, c1Refs.merge(refs))
      case None =>
        if (descendantsOf(cells, cell).isEmpty) cells.put(cell, refs)
        else {
          var k = 0
          while (k < 4) {
            insert(cells, CellId.child(cell, k), refs)
            k += 1
          }
        }
    }
  }

  /** Precision refinement (§3.2) of a copy of `sc`, one expensive cell
    * after another on one thread: each is reclassified, removed, and split
    * through [[SuperCovering.children]] until its expensive descendants
    * reach `minLevel`; the cells the recursion ends at are put back.
    */
  def refineToPrecision(sc: SuperCovering, minLevel: Int, polys: Array[Polygon]): SuperCovering = {
    val cells = cellsOf(sc)
    def refine(cell: Long, refs: RefList): Unit =
      if (refs.isExpensive && CellId.level(cell) < minLevel) {
        val cs = SuperCovering.children(cell, refs, polys)
        var k = 0
        while (k < 4) { refine(CellId.child(cell, k), cs(k)); k += 1 }
      } else if (!refs.isEmpty) cells.put(cell, refs)
    val expensive = Seq.newBuilder[Long]
    cells.forEach((id, refs) => if (refs.isExpensive) expensive += id)
    expensive.result().foreach(id => refine(id, SuperCovering.reclassify(id, cells.remove(id), polys)))
    of(cells)
  }

  /** All stored cells strictly contained in `cell`. */
  private def descendantsOf(cells: Cells, cell: Long): List[Long] = {
    val out = List.newBuilder[Long]
    val it = cells.subMap(CellId.rangeMin(cell), true, CellId.rangeMax(cell), true).keySet().iterator()
    while (it.hasNext) {
      val k = it.next()
      if (k != cell) out += k
    }
    out.result()
  }

  /** The stored strict ancestor of `cell`, if any. An ancestor's own id can
    * fall outside `cell`'s id range, so check both id-order neighbours.
    */
  private def ancestorOf(cells: Cells, cell: Long): Option[Long] = {
    val fl = cells.floorEntry(cell)
    if (fl != null && fl.getKey != cell && CellId.contains(fl.getKey, cell)) return Some(fl.getKey)
    val ce = cells.ceilingEntry(cell)
    if (ce != null && ce.getKey != cell && CellId.contains(ce.getKey, cell)) return Some(ce.getKey)
    None
  }

  /** Cells tiling `ancestor` minus `descendant`: Figure 4's difference `d`,
    * exactly `3 * (level(descendant) - level(ancestor))` cells.
    */
  def difference(ancestor: Long, descendant: Long): Seq[Long] = {
    require(CellId.contains(ancestor, descendant) && ancestor != descendant,
      s"difference requires strict containment")
    val out = Seq.newBuilder[Long]
    var cur = ancestor
    while (cur != descendant) {
      var k = 0
      var onPath = 0L
      while (k < 4) {
        val c = CellId.child(cur, k)
        if (CellId.contains(c, descendant)) onPath = c else out += c
        k += 1
      }
      cur = onPath
    }
    out.result()
  }
}
