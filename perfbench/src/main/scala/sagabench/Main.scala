package sagabench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import Stats.Metric

/** Entry point: `sagabench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1>`. Prints every metric by name with its unit,
  * then one JSON result line.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
  }

  /** What a workload hands back: its metrics by the names of the doc
    * (per-layer ones only as far as the run measured them), operation
    * counts and failed checks.
    */
  final case class Report(endToEnd: Seq[Metric], perLayer: Seq[Metric], attempted: Long,
                          failed: Long, problems: Seq[String])

  val Runs: Map[String, (SparkSession, Args, Tracer) => Report] = Map(
    "construct" -> ((spark, a, tr) => Workloads.construct(spark, a, tr)),
    "live-write" -> ((spark, a, tr) => Workloads.liveWrite(spark, a, tr)),
  )

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val workload = Runs.getOrElse(a.workload,
      throw new IllegalArgumentException(s"unknown workload ${a.workload}; one of ${Runs.keys.mkString(", ")}"))
    val spark = repro.jobs.Jobs.session(s"saga-perfbench-${a.workload}")
    val code = try {
      val r = workload(spark, a, new Tracer(a.trace))
      System.err.println(f"[perfbench] ${a.workload} done at ${sinceStart()}%.1f s after JVM start")
      (r.endToEnd ++ r.perLayer).filterNot(_.value.isNaN)
        .foreach(m => println(f"${m.name}%-28s ${m.value}%14.4f ${m.unit}"))
      r.problems.foreach(p => println(s"CHECK FAILED: $p"))
      val e2e = Workloads.contract(a.workload, r.endToEnd)
      // A traced run also reports its own end-to-end numbers; their
      // difference from an untraced run is the tracing overhead.
      val shown = if (a.trace) Layers.complete(r.perLayer) ++ e2e.map(m => m.copy(name = s"traced.${m.name}")) else e2e
      println(Stats.resultJson(r.problems.isEmpty, r.attempted, r.failed, shown))
      0
    } catch {
      case e: Throwable => e.printStackTrace(); 1
    } finally spark.stop()
    sys.exit(code)
  }

  /** Seconds since the JVM started. */
  def sinceStart(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  final case class Gc(count: Long, timeMs: Long) {
    def -(o: Gc): Gc = Gc(count - o.count, timeMs - o.timeMs)
  }

  /** Collections and milliseconds spent collecting since the JVM started. */
  def gcTotals(): Gc = {
    import scala.jdk.CollectionConverters._
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Gc(beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  /** Heap in use after a full collection, in MB. */
  def heapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc(); System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
