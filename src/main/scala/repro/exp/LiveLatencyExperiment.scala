package repro.exp

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, Executors, TimeUnit}
import scala.concurrent.duration._
import org.apache.spark.sql.SparkSession
import repro.SynthKG
import repro.engine.Importance
import repro.live.{KGQ, LiveGraph}
import repro.ml.Nerd

/** E7 (§4.2/§6.1): live KG query latency. The paper's engine sustains
  * billions of queries daily at a 95th-percentile latency in the tens of
  * milliseconds (≤20ms cited for production QA workloads). We build the
  * live indexes over the stable view plus streaming events and measure
  * per-query latency percentiles under concurrent load.
  */
object LiveLatencyExperiment {

  final case class E7Result(queries: Int, threads: Int,
                            p50Ms: Double, p95Ms: Double, p99Ms: Double,
                            qps: Double) {
    def table: String = Table.render(
      "E7 / §4.2 — live KGQ latency under concurrency (paper: p95 < ~20ms)",
      Seq("queries", "threads", "p50(ms)", "p95(ms)", "p99(ms)", "qps"),
      Seq(Seq(queries.toString, threads.toString, Table.f2(p50Ms), Table.f2(p95Ms),
              Table.f2(p99Ms), Table.f2(qps))))
  }

  /** Build the live graph: stable view + resolved live events. */
  def buildLive(spark: SparkSession, scale: Int, nEvents: Int): (LiveGraph, SynthKG.Universe) = {
    val u = SynthKG.universe(scale)
    val kg = repro.core.Dataflow.pin(KgBuilders.directKG(spark, u))
    val live = new LiveGraph()
    live.loadStable(LiveGraph.stableView(kg))
    val importance = Importance.importanceView(kg, prIterations = 4)
    val er = new Nerd.Index(Nerd.buildEntries(kg, importance), KgBuilders.encoderFor(u))
    SynthKG.liveEvents(u, nEvents).foreach(ev => live.ingest(LiveGraph.resolveEvent(ev, er)))
    (live, u)
  }

  /** Representative KGQ workload: point lookups, filtered scans, and
    * multi-hop traversals.
    */
  def workload(u: SynthKG.Universe, n: Int, seed: Long = 31): Seq[String] = {
    val rnd = new scala.util.Random(seed)
    val persons = u.byType("person")
    val cities = u.byType("city")
    val teams = u.byType("team")
    (0 until n).map { i =>
      rnd.nextInt(4) match {
        case 0 =>
          val p = persons(rnd.nextInt(persons.size))
          s"""FIND person WHERE name = "${p.name}" RETURN birthplace, birth_year"""
        case 1 =>
          val c = cities(rnd.nextInt(cities.size))
          s"""FIND person WHERE birthplace -> (name = "${c.name}") RETURN name LIMIT 10"""
        case 2 =>
          val t = teams(rnd.nextInt(teams.size))
          s"""FIND sports_game WHERE home_team -> (name = "${t.name}") RETURN home_score, away_score LIMIT 5"""
        case _ =>
          val p = persons(rnd.nextInt(persons.size))
          s"""FIND person WHERE educated_at.school ~ "university" AND name = "${p.name}" RETURN educated_at.degree"""
      }
    }
  }

  def run(spark: SparkSession, scale: Int, nQueries: Int = 4000, threads: Int = 8): E7Result = {
    val (live, u) = buildLive(spark, scale, nEvents = 200)
    val engine = new KGQ.Engine(live.kv, live.index)
    val qs = workload(u, nQueries)

    // Warmup (JIT) on a prefix of the workload.
    qs.take(math.min(300, qs.size)).foreach(engine.query)
    measure(qs, threads, timeout = 10.minutes)(q => engine.query(q))
  }

  /** Run `qs` on `threads` workers and report the latency percentiles and
    * throughput of the queries that completed; a query that throws is not
    * counted. Fails if the queries are not done within `timeout`.
    */
  private[exp] def measure(qs: Seq[String], threads: Int, timeout: FiniteDuration)
                          (exec: String => Unit): E7Result = {
    val latencies = new ConcurrentLinkedQueue[Long]()
    val pool = Executors.newFixedThreadPool(threads)
    val latch = new CountDownLatch(qs.size)
    val t0 = System.nanoTime()
    qs.foreach { q =>
      pool.submit(new Runnable {
        def run(): Unit = try {
          val s = System.nanoTime()
          exec(q)
          latencies.add(System.nanoTime() - s)
        } finally latch.countDown()
      })
    }
    val finished = latch.await(timeout.toNanos, TimeUnit.NANOSECONDS)
    val wall = (System.nanoTime() - t0) / 1e9
    pool.shutdownNow()
    if (!finished)
      throw new IllegalStateException(s"${latch.getCount} of ${qs.size} queries still running after $timeout")

    val sorted = {
      import scala.jdk.CollectionConverters._
      latencies.asScala.toArray.sorted
    }
    def pctl(p: Double): Double =
      if (sorted.isEmpty) Double.NaN
      else sorted(math.min(sorted.length - 1, (p * sorted.length).toInt)) / 1e6
    E7Result(sorted.length, threads, pctl(0.50), pctl(0.95), pctl(0.99), sorted.length / wall)
  }
}
