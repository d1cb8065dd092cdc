package repro.grid

import repro.geo.{Geom, MBR}

/** 64-bit quadtree cell identifiers over the planar world square.
  *
  * The paper uses Google S2 cell ids (Hilbert curve on cube faces, 30
  * levels, 2 bits per level, trailing sentinel bit encoding the level). Our
  * ids keep the exact same *arithmetic* — which is all ACT and the paper's
  * merge algorithm rely on — but enumerate quadrants along the Z-order
  * curve on a single planar face (DESIGN.md §2):
  *
  * {{{
  *   id = position(2L bits, MSB-aligned in a 61-bit space) | 1 << (60 - 2L)
  * }}}
  *
  * i.e. bit layout `[2L position bits][1][60-2L zero bits]` within the low
  * 61 bits. Children extend the parent's position bits, so child ids share
  * a common prefix with their parent — the property both the radix tree and
  * the super-covering merge require (§2 "Location Discretization").
  *
  * All functions here are static arithmetic on `Long`s — no allocation on
  * the probe path.
  */
object CellId {

  /** Maximum quadtree level (matches S2; a level-30 cell is ~7.6 µm here). */
  val MaxLevel = 30

  /** Lowest set bit — encodes the level, and half the id-range radius. */
  @inline def lsb(id: Long): Long = id & -id

  /** Lowest set bit of a cell at `level`. */
  @inline def lsbForLevel(level: Int): Long = 1L << (2 * (MaxLevel - level))

  /** Quadtree level of `id` (0 = root/world, 30 = finest). */
  @inline def level(id: Long): Int = MaxLevel - (java.lang.Long.numberOfTrailingZeros(id) >> 1)

  /** Smallest leaf-space id covered by this cell. */
  @inline def rangeMin(id: Long): Long = id - (lsb(id) - 1)

  /** Largest leaf-space id covered by this cell. */
  @inline def rangeMax(id: Long): Long = id + (lsb(id) - 1)

  /** True iff cell `a` contains cell `b` (including a == b). */
  @inline def contains(a: Long, b: Long): Boolean =
    rangeMin(a) <= b && b <= rangeMax(a)

  /** Ancestor of `id` at `lvl` (requires lvl <= level(id)). */
  @inline def parentAt(id: Long, lvl: Int): Long = {
    val newLsb = lsbForLevel(lvl)
    (id & -newLsb) | newLsb
  }

  /** Direct parent. */
  @inline def parent(id: Long): Long = parentAt(id, level(id) - 1)

  /** Child `k` (0..3, Z-order) of `id`. */
  @inline def child(id: Long, k: Int): Long = {
    val childLsb = lsb(id) >> 2
    id + (2L * k - 3L) * childLsb
  }

  /** The 60-bit position path of the cell, MSB-aligned (bits beyond the
    * cell's `2*level` path bits are zero). This is the radix-tree key.
    */
  @inline def path60(id: Long): Long = {
    val lvl = level(id)
    if (lvl == 0) 0L else (id >>> (61 - 2 * lvl)) << (60 - 2 * lvl)
  }

  /** Rebuild an id from a 60-bit MSB-aligned path and a level. */
  @inline def fromPath60(path: Long, lvl: Int): Long = {
    if (lvl == 0) 1L << 60
    else ((path >>> (60 - 2 * lvl)) << (61 - 2 * lvl)) | (1L << (60 - 2 * lvl))
  }

  // --- (i, j) <-> Z-order interleaving -----------------------------------

  /** Spread the low 30 bits of `v` into the even bit positions. */
  private def spread(v: Long): Long = {
    var x = v & 0x3fffffffL
    x = (x | (x << 16)) & 0x0000ffff0000ffffL
    x = (x | (x << 8))  & 0x00ff00ff00ff00ffL
    x = (x | (x << 4))  & 0x0f0f0f0f0f0f0f0fL
    x = (x | (x << 2))  & 0x3333333333333333L
    x = (x | (x << 1))  & 0x5555555555555555L
    x
  }

  /** Compact the even bit positions of `v` into the low 30 bits. */
  private def compact(v: Long): Long = {
    var x = v & 0x5555555555555555L
    x = (x | (x >>> 1)) & 0x3333333333333333L
    x = (x | (x >>> 2)) & 0x0f0f0f0f0f0f0f0fL
    x = (x | (x >>> 4)) & 0x00ff00ff00ff00ffL
    x = (x | (x >>> 8)) & 0x0000ffff0000ffffL
    x = (x | (x >>> 16)) & 0x00000000ffffffffL
    x
  }

  /** Cell at `lvl` whose discrete coordinates are `(i, j)` (each < 2^lvl).
    * `i` occupies the odd (higher) bit of each quadrant pair.
    */
  def fromIJ(i: Long, j: Long, lvl: Int): Long = {
    val pos = (spread(i) << 1) | spread(j) // 2*lvl significant bits
    fromPath60(pos << (60 - 2 * lvl), lvl)
  }

  /** Inverse of [[fromIJ]]: `(i, j)` of the cell at its own level. */
  def toIJ(id: Long): (Long, Long) = {
    val lvl = level(id)
    val pos = path60(id) >>> (60 - 2 * lvl) // low 2*lvl bits significant
    (compact(pos >>> 1), compact(pos))
  }

  /** Leaf (level-30) cell containing world point `(x, y)`; coordinates are
    * clamped into the world square, mirroring S2's lat/lng normalization.
    * Only [[placeable]] points land in a cell that holds them: the Spark
    * operator probes any other point as a miss (DESIGN.md §3).
    */
  def fromPoint(x: Double, y: Double): Long = {
    val scale = (1L << MaxLevel).toDouble / Geom.World
    val i = math.min((1L << MaxLevel) - 1, math.max(0L, (x * scale).toLong))
    val j = math.min((1L << MaxLevel) - 1, math.max(0L, (y * scale).toLong))
    fromIJ(i, j, MaxLevel)
  }

  /** True iff `(x, y)` lies in the closed world square `[0, W]²`, so the
    * leaf of [[fromPoint]] holds it (a coordinate equal to `W` lands on the
    * border cell, whose closed bounds hold it). False for NaN coordinates.
    */
  @inline def placeable(x: Double, y: Double): Boolean =
    x >= 0.0 && x <= Geom.World && y >= 0.0 && y <= Geom.World

  /** World-space bounds of the cell. */
  def bounds(id: Long): MBR = {
    val lvl = level(id)
    val (i, j) = toIJ(id)
    val side = Geom.World / (1L << lvl).toDouble
    MBR(i * side, j * side, (i + 1) * side, (j + 1) * side)
  }

  /** Cell side length at `lvl` in metres. */
  @inline def sideAtLevel(lvl: Int): Double = Geom.World / (1L << lvl).toDouble

  /** Cell diagonal at `lvl` in metres — the precision a boundary cell at
    * that level guarantees (§3.2).
    */
  @inline def diagonalAtLevel(lvl: Int): Double = sideAtLevel(lvl) * math.sqrt(2.0)

  /** Minimum boundary-cell level that guarantees `precisionMeters`:
    * smallest `l` with `diagonal(l) <= precisionMeters`.
    */
  def levelForPrecision(precisionMeters: Double): Int = {
    var l = 0
    while (l < MaxLevel && diagonalAtLevel(l) > precisionMeters) l += 1
    l
  }
}
