package joinbench

import java.io.File

/** A benchmark workload: a polygon set, how its index is built and joined,
  * and the kind of points probed against it. Points come from the run's
  * seed; training points always from [[Main.TrainSeed]].
  */
final case class Workload(name: String, dataset: String, precision: Option[Double],
                          exact: Boolean, taxi: Boolean, trainPoints: Int)

final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: File)

/** Entry point of one benchmark run:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * Prints every metric by name and unit, then, as its last line, the JSON
  * result. Windows, spans and deterministic counts go under `--out`.
  */
object Main {

  /** Points probed per pass. */
  val Points = 4000000
  /** Seed of the historical points that train the boroughs index (Table 6). */
  val TrainSeed = 2009L

  val Workloads: Seq[Workload] = Seq(
    // Refinement in setup; trie descent and decode are the whole kernel;
    // PIP never runs; the broadcast is large.
    Workload("nbhd-approx4m-taxi", "neighborhoods", Some(4.0), exact = false, taxi = true, trainPoints = 0),
    // Merge dominates setup; the index outgrows every cache; PIP runs on
    // candidate cells everywhere; the largest broadcast.
    Workload("census-exact-uniform", "census", None, exact = true, taxi = false, trainPoints = 0),
    // Training in setup; complex polygons make PIP expensive; merge and
    // broadcast are negligible.
    Workload("boroughs-exact-trained-taxi", "boroughs", None, exact = true, taxi = true, trainPoints = 1000000),
  )

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.find(_.name == get("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${get("workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = get("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(w, get("seed").toLong, seconds, trace, new File(get("out")))
  }

  def main(args: Array[String]): Unit = {
    val a =
      try parse(args)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(e.getMessage)
          sys.exit(2)
      }
    a.out.mkdirs()
    val bench = new Bench(a)
    val line =
      try bench.run()
      finally bench.close()
    println(line)
  }
}
