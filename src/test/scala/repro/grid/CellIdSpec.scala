package repro.grid

import org.scalatest.funsuite.AnyFunSuite
import repro.core.InsertMerge
import repro.geo.Geom

/** Property-style tests (seeded, deterministic) for the cell id arithmetic
  * the whole reproduction rests on.
  */
class CellIdSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(1)

  private def randomCell(maxLevel: Int = CellId.MaxLevel): Long = {
    val lvl = rnd.nextInt(maxLevel + 1)
    val i = if (lvl == 0) 0L else rnd.nextLong(1L << lvl)
    val j = if (lvl == 0) 0L else rnd.nextLong(1L << lvl)
    CellId.fromIJ(i, j, lvl)
  }

  test("root cell has level 0 and covers everything") {
    val root = CellId.fromPath60(0L, 0)
    assert(CellId.level(root) == 0)
    for (_ <- 1 to 100) assert(CellId.contains(root, randomCell()))
  }

  for (lvl <- 0 to 30) test(s"level round-trips through fromIJ at level $lvl") {
    val i = if (lvl == 0) 0L else (1L << lvl) - 1
    val id = CellId.fromIJ(i, 0L, lvl)
    assert(CellId.level(id) == lvl)
  }

  test("fromIJ/toIJ round-trip at random levels") {
    for (_ <- 1 to 500) {
      val lvl = rnd.nextInt(31)
      val i = if (lvl == 0) 0L else rnd.nextLong(1L << lvl)
      val j = if (lvl == 0) 0L else rnd.nextLong(1L << lvl)
      val id = CellId.fromIJ(i, j, lvl)
      assert(CellId.toIJ(id) == ((i, j)), s"lvl=$lvl i=$i j=$j")
      assert(CellId.level(id) == lvl)
    }
  }

  test("parent of a child is the original cell") {
    for (_ <- 1 to 500) {
      val c = randomCell(29)
      for (k <- 0 to 3) assert(CellId.parent(CellId.child(c, k)) == c)
    }
  }

  test("children are contained in the parent and tile its range exactly") {
    for (_ <- 1 to 200) {
      val c = randomCell(29)
      val kids = (0 to 3).map(CellId.child(c, _)).sorted
      kids.foreach(k => assert(CellId.contains(c, k)))
      assert(CellId.rangeMin(kids.head) == CellId.rangeMin(c))
      assert(CellId.rangeMax(kids.last) == CellId.rangeMax(c))
      kids.sliding(2).foreach { case Seq(a, b) =>
        assert(CellId.rangeMax(a) + 2 == CellId.rangeMin(b)) // leaf ids are odd: step 2
      }
    }
  }

  test("containment matches prefix relationship") {
    for (_ <- 1 to 500) {
      val a = randomCell(25)
      // descendant via random walk
      var d = a
      for (_ <- 0 until rnd.nextInt(5)) if (CellId.level(d) < 30) d = CellId.child(d, rnd.nextInt(4))
      assert(CellId.contains(a, d))
      if (d != a) assert(!CellId.contains(d, a))
    }
  }

  test("disjoint cells have disjoint ranges") {
    for (_ <- 1 to 500) {
      val a = randomCell()
      val b = randomCell()
      if (!CellId.contains(a, b) && !CellId.contains(b, a)) {
        assert(CellId.rangeMax(a) < CellId.rangeMin(b) || CellId.rangeMax(b) < CellId.rangeMin(a))
      }
    }
  }

  test("path60 round-trips through fromPath60") {
    for (_ <- 1 to 500) {
      val c = randomCell()
      assert(CellId.fromPath60(CellId.path60(c), CellId.level(c)) == c)
    }
  }

  test("child paths extend the parent's path") {
    for (_ <- 1 to 200) {
      val c = randomCell(29)
      val lvl = CellId.level(c)
      for (k <- 0 to 3) {
        val child = CellId.child(c, k)
        if (lvl > 0) {
          val parentBits = CellId.path60(c) >>> (60 - 2 * lvl)
          val childBits = CellId.path60(child) >>> (60 - 2 * (lvl + 1))
          assert(childBits >>> 2 == parentBits)
        }
      }
    }
  }

  test("fromPoint produces a level-30 cell whose bounds contain the point") {
    for (_ <- 1 to 500) {
      val x = rnd.nextDouble() * Geom.World
      val y = rnd.nextDouble() * Geom.World
      val id = CellId.fromPoint(x, y)
      assert(CellId.level(id) == 30)
      val b = CellId.bounds(id)
      assert(b.containsPoint(x, y), s"($x,$y) not in $b")
    }
  }

  test("fromPoint clamps coordinates outside the world") {
    assert(CellId.level(CellId.fromPoint(-5.0, -5.0)) == 30)
    assert(CellId.level(CellId.fromPoint(Geom.World + 5.0, Geom.World + 5.0)) == 30)
  }

  test("bounds of a cell contain bounds of its children") {
    for (_ <- 1 to 200) {
      val c = randomCell(29)
      val b = CellId.bounds(c)
      for (k <- 0 to 3) {
        val cb = CellId.bounds(CellId.child(c, k))
        assert(b.contains(cb))
      }
    }
  }

  test("geometric containment agrees with id containment") {
    for (_ <- 1 to 300) {
      val a = randomCell(15)
      val b = randomCell(20)
      val geomContains = CellId.bounds(a).contains(CellId.bounds(b))
      val idContains = CellId.contains(a, b)
      if (CellId.level(b) >= CellId.level(a))
        assert(geomContains == idContains, s"a=$a b=$b")
    }
  }

  for (p <- Seq(60.0 -> 8, 15.0 -> 10, 4.0 -> 12))
    test(s"precision ${p._1}m maps to level ${p._2} in the 8192m world") {
      assert(CellId.levelForPrecision(p._1) == p._2)
      assert(CellId.diagonalAtLevel(p._2) <= p._1)
      assert(CellId.diagonalAtLevel(p._2 - 1) > p._1)
    }

  // `difference` is Figure 4's conflict-resolution step, kept with the
  // insert-at-a-time merge that tests compare `SuperCovering.build` against.
  test("difference tiles ancestor minus descendant exactly") {
    for (_ <- 1 to 200) {
      val a = randomCell(24)
      var d = CellId.child(a, rnd.nextInt(4))
      for (_ <- 0 until rnd.nextInt(4)) d = CellId.child(d, rnd.nextInt(4))
      val diff = InsertMerge.difference(a, d)
      // 3 cells per level of separation
      assert(diff.size == 3 * (CellId.level(d) - CellId.level(a)))
      // disjoint from d and from each other, all inside a
      diff.foreach { c =>
        assert(CellId.contains(a, c))
        assert(!CellId.contains(c, d) && !CellId.contains(d, c))
      }
      for (Seq(c1, c2) <- diff.combinations(2))
        assert(!CellId.contains(c1, c2) && !CellId.contains(c2, c1))
      // areas add up
      val area = diff.map(c => CellId.bounds(c).area).sum + CellId.bounds(d).area
      assert(math.abs(area - CellId.bounds(a).area) < 1e-6 * CellId.bounds(a).area)
    }
  }

  test("difference rejects non-strict containment") {
    val a = randomCell(20)
    intercept[IllegalArgumentException](InsertMerge.difference(a, a))
  }

  test("sideAtLevel halves per level") {
    for (l <- 0 until 30)
      assert(math.abs(CellId.sideAtLevel(l) / 2 - CellId.sideAtLevel(l + 1)) < 1e-9)
  }

  test("lsbForLevel matches lsb of constructed cells") {
    for (lvl <- 0 to 30) {
      val id = CellId.fromIJ(0, 0, lvl)
      assert(CellId.lsb(id) == CellId.lsbForLevel(lvl))
    }
  }
}
