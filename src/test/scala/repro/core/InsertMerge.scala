package repro.core

import repro.grid.CellId

/** Listing 1's merge one cell at a time, with Figure 4's conflict
  * resolution at each insert: the reference implementation that
  * [[SuperCovering.build]]'s sort-and-sweep merge must equal, cell for cell
  * and refs included.
  */
object InsertMerge {

  /** Insert all covering cells with boundary refs, then all
    * interior-covering cells with interior refs.
    */
  def build(coverings: Seq[(Int, Vector[Long])],
            interiors: Seq[(Int, Vector[Long])]): SuperCovering = {
    val sc = new SuperCovering
    for ((pid, cov) <- coverings; cell <- cov)
      insert(sc, cell, RefList(Array(PolygonRef(pid, interior = false))))
    for ((pid, interior) <- interiors; cell <- interior)
      insert(sc, cell, RefList(Array(PolygonRef(pid, interior = true))))
    sc
  }

  /** Insert `cell` with `refs`, keeping the stored cells disjoint: on a
    * conflict between ancestor c1 and descendant c2, c1 is replaced by c2
    * plus the difference d = c1 \ c2, with c1's references copied onto
    * both. Several descendants (overlapping polygons) are resolved by
    * recursing into child cells.
    */
  def insert(sc: SuperCovering, cell: Long, refs: RefList): Unit = {
    val cells = sc.cells
    if (refs.isEmpty) return
    val existing = cells.get(cell)
    if (existing != null) { // duplicate cell: merge reference lists
      cells.put(cell, existing.merge(refs))
      return
    }
    ancestorOf(sc, cell) match {
      case Some(c1) =>
        val c1Refs = cells.remove(c1)
        difference(c1, cell).foreach(d => cells.put(d, c1Refs))
        cells.put(cell, c1Refs.merge(refs))
      case None =>
        if (descendantsOf(sc, cell).isEmpty) cells.put(cell, refs)
        else {
          var k = 0
          while (k < 4) {
            insert(sc, CellId.child(cell, k), refs)
            k += 1
          }
        }
    }
  }

  /** All stored cells strictly contained in `cell`. */
  private def descendantsOf(sc: SuperCovering, cell: Long): List[Long] = {
    val out = List.newBuilder[Long]
    val it = sc.cells.subMap(CellId.rangeMin(cell), true, CellId.rangeMax(cell), true).keySet().iterator()
    while (it.hasNext) {
      val k = it.next()
      if (k != cell) out += k
    }
    out.result()
  }

  /** The stored strict ancestor of `cell`, if any. An ancestor's own id can
    * fall outside `cell`'s id range, so check both id-order neighbours.
    */
  private def ancestorOf(sc: SuperCovering, cell: Long): Option[Long] = {
    val fl = sc.cells.floorEntry(cell)
    if (fl != null && fl.getKey != cell && CellId.contains(fl.getKey, cell)) return Some(fl.getKey)
    val ce = sc.cells.ceilingEntry(cell)
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
