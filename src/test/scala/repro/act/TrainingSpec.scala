package repro.act

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ActIndex, InsertMerge, Join, SuperCovering}
import repro.geo.Geom
import repro.grid.CellId
import repro.spatial.SpatialData

/** §3.3.1 index training: adapting the accurate index to the expected point
  * distribution must preserve exact results while reducing PIP tests.
  */
class TrainingSpec extends AnyFunSuite {
  private val polys = SpatialData.polygonGrid(4, 14, 0.2, 0.15, seed = 700L)
  private val (xs, ys, leafIds) = SpatialData.pointArrays(20000, taxi = true, seed = 800L)
  private val (_, _, trainIds) = SpatialData.pointArrays(20000, taxi = true, seed = 2009L)

  private def exactJoin(idx: ActIndex) = {
    val counts = new Array[Long](polys.length)
    val st = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
    (counts.toSeq, st)
  }

  test("training preserves exact join results") {
    val base = ActIndex.build(polys, 8, None)
    val (expected, _) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    val refinements = trained.train(trainIds)
    assert(refinements > 0, "training on skewed points should refine cells")
    val (got, _) = exactJoin(trained)
    assert(got == expected)
  }

  test("training reduces PIP tests on the trained distribution") {
    val base = ActIndex.build(polys, 8, None)
    val (_, stBase) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    trained.train(trainIds)
    val (_, stTrained) = exactJoin(trained)
    assert(stTrained.pipTests < stBase.pipTests,
      s"trained ${stTrained.pipTests} vs base ${stBase.pipTests}")
  }

  test("training improves the solely-true-hit rate") {
    val base = ActIndex.build(polys, 8, None)
    val (_, stBase) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    trained.train(trainIds)
    val (_, stTrained) = exactJoin(trained)
    assert(stTrained.sthPercent >= stBase.sthPercent)
  }

  test("more training points refine at least as much") {
    val t1 = ActIndex.build(polys, 8, None)
    val r1 = t1.train(trainIds.take(2000))
    val t2 = ActIndex.build(polys, 8, None)
    val r2 = t2.train(trainIds)
    assert(r2 >= r1)
  }

  test("training grows the index moderately") {
    val base = ActIndex.build(polys, 8, None)
    val sizeBefore = base.sizeBytes
    base.train(trainIds)
    val sizeAfter = base.sizeBytes
    assert(sizeAfter >= sizeBefore)
    assert(sizeAfter < sizeBefore * 20, "training should not explode the index")
  }

  test("training is idempotent once cells are cheap") {
    val idx = ActIndex.build(polys, 8, None)
    idx.train(trainIds)
    // Re-train with the same points: progressively fewer refinements.
    val again = idx.train(trainIds)
    val third = idx.train(trainIds)
    assert(third <= again)
  }

  test("training stops at the memory budget") {
    val idx = ActIndex.build(polys, 8, None)
    val budget = idx.act.sizeBytes // no growth allowed beyond current size
    idx.train(trainIds, maxBytes = budget)
    // At most one refinement (4 child writes, each creating at most a
    // handful of 2 KiB nodes) can overshoot before the check trips.
    assert(idx.act.sizeBytes <= budget + 64L * 2048)
    // And results stay exact.
    val (got, _) = exactJoin(idx)
    val (expected, _) = exactJoin(ActIndex.build(polys, 8, None))
    assert(got == expected)
  }

  test("the ACT always matches its super covering: default, 4 m and trained") {
    val trained = ActIndex.build(polys, 8, None)
    assert(trained.train(trainIds) > 0)
    val rnd = new scala.util.Random(12)
    val randomLeaves = Array.fill(20000)(CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30))
    val indexes = Seq("default" -> ActIndex.build(polys, 8, None),
      "4 m" -> ActIndex.build(polys, 8, Some(4.0)), "trained" -> trained)
    for ((name, idx) <- indexes; leaf <- randomLeaves ++ trainIds) {
      // refsOf(0) is empty: a leaf in no stored cell must miss.
      val expected = idx.sc.refsOf(idx.sc.cellContainingLeaf(leaf))
      assert(EntryRefs(idx.act.probe(leaf), idx.lut) == expected, s"$name index, leaf $leaf")
    }
  }

  test("an entry holds a candidate exactly where its cell is expensive: default, 4 m and trained") {
    val polys = SpatialData.neighborhoods()
    val trained = ActIndex.build(polys, 8, None)
    assert(trained.train(trainIds) > 0)
    // Three copies of one polygon: their interior cells hold three true
    // hits, a lookup-table entry without candidates.
    val stacked = Array.tabulate(3)(id => polys(0).copy(id = id))
    val indexes = Seq("default" -> ActIndex.build(polys, 8, None),
      "4 m" -> ActIndex.build(polys, 8, Some(4.0)), "trained" -> trained,
      "stacked" -> ActIndex.build(stacked, 8, None))
    val kinds = scala.collection.mutable.Set.empty[String]
    for ((name, idx) <- indexes) idx.sc.foreachCell { (cell, refs) =>
      val e = idx.act.probe(CellId.rangeMin(cell))
      assert(TaggedEntry.isExpensive(e, idx.lut) == refs.isExpensive, s"$name index, cell $cell, refs $refs")
      kinds += (TaggedEntry.tag(e) match {
        case TaggedEntry.TagInline => s"${refs.size} inline"
        case _ => s"lookup table, ${if (refs.isExpensive) "with" else "without"} candidates"
      })
    }
    assert(kinds == Set("1 inline", "2 inline", "lookup table, with candidates", "lookup table, without candidates"))
    val miss = ActIndex.build(polys.take(1), 8, None)
    assert(!TaggedEntry.isExpensive(miss.act.probe(CellId.fromPoint(Geom.World - 1, Geom.World - 1)), miss.lut))
  }

  /** Training (§3.3.1) over a plain `TreeMap` copy of `idx`'s super
    * covering, writing `idx`'s ACT: the reference [[ActIndex.train]] must
    * equal. Returns the cells after training, the refinements, and how
    * many of them split a cell of the copy and a cell training created.
    */
  private def trainOverTreeMap(idx: ActIndex, leafIds: Array[Long],
                               maxBytes: Long): (InsertMerge.Cells, Long, Long, Long) = {
    val cells = InsertMerge.cellsOf(idx.sc)
    val base = new java.util.HashSet[Long](cells.keySet)
    def containing(leaf: Long): Long =
      Seq(cells.floorEntry(leaf), cells.ceilingEntry(leaf))
        .find(e => e != null && CellId.contains(e.getKey, leaf)).fold(0L)(_.getKey)
    var refinements, onBase, onCreated = 0L
    val it = leafIds.iterator
    while (it.hasNext && idx.act.sizeBytes <= maxBytes) {
      val cell = containing(it.next())
      if (cell != 0L && cells.get(cell).isExpensive && CellId.level(cell) < CellId.MaxLevel) {
        val children = SuperCovering.children(cell, cells.remove(cell), idx.polys)
        for (k <- 0 until 4) {
          if (!children(k).isEmpty) cells.put(CellId.child(cell, k), children(k))
          idx.act.writeCell(CellId.child(cell, k), TaggedEntry.encode(children(k), idx.lut))
        }
        refinements += 1
        if (base.contains(cell)) onBase += 1 else onCreated += 1
      }
    }
    (cells, refinements, onBase, onCreated)
  }

  /** `build` trained by [[ActIndex.train]] and by [[trainOverTreeMap]] on
    * 1 M taxi points, under the Table 6 budget (16 MiB of growth) and
    * without one: the refinements, cells, refs and ACT sizes must agree.
    * Returns the oracle's splits of copied and of created cells, unbudgeted.
    */
  private def assertTrainsLikeTreeMap(build: () => ActIndex): (Long, Long) = {
    val points = SpatialData.pointArrays(1000000, taxi = true, seed = 2009L)._3
    val unbudgeted = for (budgeted <- Seq(true, false)) yield {
      val Seq(idx, ref) = Seq.fill(2)(build())
      val maxBytes = if (budgeted) idx.act.sizeBytes + 16L * 1024 * 1024 else Long.MaxValue
      val refinements = idx.train(points, maxBytes)
      val (cells, expected, onBase, onCreated) = trainOverTreeMap(ref, points, maxBytes)
      val what = if (budgeted) "under the budget" else "without a budget"
      assert(refinements == expected, what)
      assert(InsertMerge.cellsOf(idx.sc) == cells, what)
      assert(idx.sc.cellCount == cells.size, what)
      assert(idx.act.sizeBytes == ref.act.sizeBytes, what)
      (onBase, onCreated)
    }
    unbudgeted.last
  }

  test("training on boroughs equals training over a TreeMap, with and without a budget") {
    val polys = SpatialData.boroughs()
    assertTrainsLikeTreeMap(() => ActIndex.build(polys, 8, None))
  }

  test("training on neighborhoods at 4 m equals training over a TreeMap, with and without a budget") {
    val polys = SpatialData.neighborhoods()
    val (onBase, onCreated) = assertTrainsLikeTreeMap(() => ActIndex.build(polys, 8, Some(4.0)))
    assert(onBase > 0 && onCreated > 0, s"splits of built cells: $onBase, of trained cells: $onCreated")
  }

  private def serialize(o: AnyRef): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(buf)
    out.writeObject(o)
    out.close()
    buf.toByteArray
  }

  test("a deserialized index probes and trains alike") {
    val idx = ActIndex.build(polys, 8, None)
    val copy = new ObjectInputStream(new ByteArrayInputStream(serialize(idx))).readObject().asInstanceOf[ActIndex]
    leafIds.foreach { leaf =>
      assert(EntryRefs(copy.act.probe(leaf), copy.lut) ==
        EntryRefs(idx.act.probe(leaf), idx.lut))
    }
    assert(exactJoin(copy)._1 == exactJoin(idx)._1)
    assert(copy.train(trainIds) == idx.train(trainIds))
    assert(copy.act.sizeBytes == idx.act.sizeBytes)
    val (got, gotStats) = exactJoin(copy)
    val (expected, expectedStats) = exactJoin(idx)
    assert(got == expected && gotStats.pipTests == expectedStats.pipTests)
  }
}
