package repro.index

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.act.{ACT, EntryRefs, LookupTable, TaggedEntry}
import repro.core.SuperCovering
import repro.grid.CellId
import repro.metrics.ProbeCounter

/** LB and GBT must agree with each other, with ACT and with a brute-force
  * scan on arbitrary disjoint cell sets.
  */
class CellIndexSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(6)

  private def randomCells(n: Int): (Array[Long], Array[Long], LookupTable) = {
    // One random cell per polygon, as its covering or its interior covering.
    val (interiors, coverings) = Seq.tabulate(n) { pid =>
      val lvl = 1 + rnd.nextInt(14)
      (pid -> Vector(CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)), rnd.nextBoolean())
    }.partition(_._2)
    val (ids, refs) = SuperCovering.build(coverings.map(_._1), interiors.map(_._1)).toSortedArrays
    val lut = new LookupTable
    (ids, refs.map(r => TaggedEntry.encode(r, lut)), lut)
  }

  private def bruteForce(ids: Array[Long], entries: Array[Long], leaf: Long): Long = {
    var i = 0
    while (i < ids.length) {
      if (CellId.contains(ids(i), leaf)) return entries(i)
      i += 1
    }
    TaggedEntry.NoHit
  }

  for (n <- Seq(1, 5, 17, 64, 300, 2000)) {
    test(s"LB and GBT agree with brute force over $n cells") {
      val (ids, entries, _) = randomCells(n)
      val lb = SortedCellVector(ids, entries)
      val gbt = BTreeCellIndex(ids, entries)
      for (_ <- 1 to 3000) {
        val leaf = CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30)
        val exp = bruteForce(ids, entries, leaf)
        assert(lb.probe(leaf) == exp, s"LB n=$n leaf=$leaf")
        assert(gbt.probe(leaf) == exp, s"GBT n=$n leaf=$leaf")
      }
    }
  }

  test("probing directly at stored cell boundaries works") {
    val (ids, entries, _) = randomCells(200)
    val lb = SortedCellVector(ids, entries)
    val gbt = BTreeCellIndex(ids, entries)
    for (i <- ids.indices) {
      // Probe the first and last leaf of every stored cell.
      for (leaf <- Seq(CellId.rangeMin(ids(i)), CellId.rangeMax(ids(i)))) {
        assert(lb.probe(leaf) == entries(i))
        assert(gbt.probe(leaf) == entries(i))
      }
    }
  }

  test("empty structures always miss") {
    val lb = SortedCellVector(Array.empty, Array.empty)
    val gbt = BTreeCellIndex(Array.empty, Array.empty)
    val leaf = CellId.fromPoint(1, 1)
    assert(lb.probe(leaf) == TaggedEntry.NoHit)
    assert(gbt.probe(leaf) == TaggedEntry.NoHit)
  }

  test("LB size is 16 bytes per cell") {
    val (ids, entries, _) = randomCells(100)
    assert(SortedCellVector(ids, entries).sizeBytes == ids.length.toLong * 16)
  }

  test("GBT sizes by 256-byte nodes and has at least one node per 16 cells") {
    val (ids, entries, _) = randomCells(1000)
    val gbt = BTreeCellIndex(ids, entries)
    assert(gbt.sizeBytes >= (ids.length / 16).toLong * 256)
    assert(gbt.sizeBytes % 256 == 0)
  }

  test("access counters increase with probes") {
    val (ids, entries, _) = randomCells(500)
    val lb = SortedCellVector(ids, entries)
    lb.resetMetrics()
    lb.probe(CellId.fromPoint(1, 1))
    assert(lb.accessCount > 0)
    val gbt = BTreeCellIndex(ids, entries)
    gbt.resetMetrics()
    gbt.probe(CellId.fromPoint(1, 1))
    assert(gbt.accessCount > 0)
  }

  test("ACT agrees with LB/GBT on a shared large covering") {
    val (ids, entries, lut) = randomCells(1500)
    val act = ACT.build(8, ids, entries)
    val lb = SortedCellVector(ids, entries)
    for (_ <- 1 to 3000) {
      val leaf = CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30)
      assert(EntryRefs(act.probe(leaf), lut) == EntryRefs(lb.probe(leaf), lut))
    }
  }

  test("probe(leaf) and probe(leaf, m) agree on entry, accesses and depth") {
    val (ids, entries, _) = randomCells(1500)
    val indexes: Seq[(String, CellIndex)] = Seq( // paper names: ACTk = k quadtree levels per node
      "ACT1" -> ACT.build(2, ids, entries), "ACT2" -> ACT.build(4, ids, entries),
      "ACT4" -> ACT.build(8, ids, entries),
      "LB" -> SortedCellVector(ids, entries), "GBT" -> BTreeCellIndex(ids, entries))
    val anyLeaf = for {
      i <- Gen.choose(0L, (1L << 30) - 1)
      j <- Gen.choose(0L, (1L << 30) - 1)
    } yield CellId.fromIJ(i, j, 30)
    val cellEdge = Gen.oneOf(ids.toSeq).flatMap(c => Gen.oneOf(CellId.rangeMin(c), CellId.rangeMax(c)))
    val prop = Prop.forAll(Gen.oneOf(anyLeaf, cellEdge)) { leaf =>
      indexes.forall { case (_, idx) =>
        idx.resetMetrics()
        val e = idx.probe(leaf)
        val m = new ProbeCounter
        idx.probe(leaf, m) == e && m.accesses == idx.accessCount && m.accesses > 0
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(66L)), prop)
    assert(res.passed, res.status)
  }
}
