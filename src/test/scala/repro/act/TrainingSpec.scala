package repro.act

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ActIndex, Join}
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
