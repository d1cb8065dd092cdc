package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.grid.CellId
import repro.spatial.SpatialData

/** [[SuperCovering.build]]'s sort-and-sweep merge equals the
  * insert-at-a-time merge of [[InsertMerge]], and
  * [[SuperCovering.refineToPrecision]]'s parallel refinement equals its
  * serial one, cell for cell and refs included.
  */
class MergeOracleSpec extends AnyFunSuite {

  private def sameCells(a: SuperCovering, b: SuperCovering): Boolean = {
    val (idsA, refsA) = a.toSortedArrays
    val (idsB, refsB) = b.toSortedArrays
    java.util.Arrays.equals(idsA, idsB) && refsA.sameElements(refsB)
  }

  private val anyCell: Gen[Long] = for {
    lvl <- Gen.choose(0, 12)
    i <- Gen.choose(0L, (1L << lvl) - 1)
    j <- Gen.choose(0L, (1L << lvl) - 1)
  } yield CellId.fromIJ(i, j, lvl)

  /** `seed` itself (a duplicate), one of its ancestors or a descendant up
    * to six levels down.
    */
  private def related(seed: Long): Gen[Long] = Gen.oneOf(
    Gen.const(seed),
    Gen.choose(0, CellId.level(seed)).map(CellId.parentAt(seed, _)),
    Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.choose(0, 3))).map(_.foldLeft(seed)(CellId.child)))

  /** Coverings and interior coverings of up to eight polygons, drawn around
    * a few shared seed cells so that cells nest and repeat across
    * polygons, plus unrelated cells that are mostly disjoint.
    */
  private val polygonSet: Gen[(Seq[(Int, Vector[Long])], Seq[(Int, Vector[Long])])] = for {
    seeds <- Gen.nonEmptyListOf(anyCell).map(_.take(4))
    cell = Gen.frequency(4 -> Gen.oneOf(seeds).flatMap(related), 1 -> anyCell)
    n <- Gen.choose(1, 8)
    covs <- Gen.listOfN(n, Gen.choose(0, 6).flatMap(Gen.listOfN(_, cell)))
    ints <- Gen.listOfN(n, Gen.choose(0, 4).flatMap(Gen.listOfN(_, cell)))
  } yield (covs.zipWithIndex.map { case (c, pid) => pid -> c.toVector },
           ints.zipWithIndex.map { case (c, pid) => pid -> c.toVector })

  test("build equals the insert-at-a-time merge on random nested, duplicate and disjoint cells") {
    val prop = Prop.forAll(polygonSet) { case (covs, ints) =>
      sameCells(SuperCovering.build(covs, ints), InsertMerge.build(covs, ints))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(12L)), prop)
    assert(res.passed, res.status)
  }

  /** A second super covering of the cells of `sc`, on copies of its arrays. */
  private def copyOf(sc: SuperCovering): SuperCovering = {
    val (ids, refs) = sc.toSortedArrays
    SuperCovering.fromSortedArrays(ids.clone(), refs.clone())
  }

  for (name <- Seq("boroughs", "neighborhoods", "census"))
    test(s"build equals the insert-at-a-time merge on $name, merged and refined at 60, 15 and 4 m") {
      val polys = SpatialData.dataset(name)
      val (covs, ints) = SuperCovering.coverings(polys)
      val sweep = SuperCovering.build(covs, ints)
      val oracle = InsertMerge.build(covs, ints)
      assert(sameCells(sweep, oracle), "after the merge")
      for (p <- Seq(60.0, 15.0, 4.0)) {
        val level = CellId.levelForPrecision(p)
        val Seq(refined, again) = Seq.fill(2)(copyOf(sweep))
        for (sc <- Seq(refined, again)) SuperCovering.refineToPrecision(sc, level, polys)
        assert(sameCells(refined, InsertMerge.refineToPrecision(oracle, level, polys)),
          s"after refinement at $p m")
        assert(sameCells(refined, again), s"two refinements at $p m differ")
      }
    }
}
