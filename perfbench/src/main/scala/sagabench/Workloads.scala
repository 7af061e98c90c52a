package sagabench

import org.apache.spark.sql.SparkSession
import repro.exp.KgBuilders
import repro.live.LiveGraph
import Main.{Args, Report}
import Stats.Metric

/** The two workloads. Sizes and rates are fixed here so that every
  * run of a workload does the same work; only the seed changes the inputs.
  */
object Workloads {

  val ConstructScale = 6
  val LiveScale = 100
  val LiveEvents = 200

  /** Reads arrive at `ReadRate` queries/s throughout the measured phase. */
  val ReadRate = 200.0
  /** Writer rate (operations/s) in the windows where it is active: two
    * events, then one curation.
    */
  val WriteRate = 20.0
  /** The measured phase alternates windows of this length; the writer is
    * active in every other one. Reads in the writer's windows are the reads
    * beside the writer, the others are their control (reads alone). Both
    * are sampled across the whole phase, so a slow stretch of the machine
    * affects both alike.
    */
  val WindowNs = 1000000000L
  /** The read-only rate ladder (queries/s) of a traced run: from
    * `ReadRate` up by half a rate at a time until a rung fails.
    */
  val Ladder: Seq[Double] = ReadRate +: Iterator.iterate(400.0)(_ * 1.5).take(9).toSeq
  /** Queries per rung: enough for ten samples beyond its p99. */
  val RungQueries = 1000
  /** The paper's §6.1 latency limit for a query, at p99. */
  val LimitMs = 20.0
  val Readers: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()) - 1)
  /** An operation unfinished this long after the last due time has failed;
    * a ladder rung beyond capacity gets longer to drain its backlog.
    */
  val GraceNs = 2000000000L
  val RungGraceNs = 10000000000L
  /** Queries that warm the read path before timing: enough for the JIT's
    * optimizing tier to compile the per-query methods, which it does after
    * about ten thousand calls.
    */
  val WarmQueries = 12000

  // ------------------------------------------------------------ construct

  def construct(spark: SparkSession, a: Args, tr: Tracer): Report = {
    val work = if (tr.on) Some(WorkCounter.install(spark.sparkContext)) else None
    val p = new Construct.Prepared(spark, ConstructScale, a.seed)
    val setupS = Main.sinceStart()
    val gc0 = Main.gcTotals()
    val (out, t) = Construct.run(p, tr)
    val gc = Main.gcTotals() - gc0
    val heap = Main.heapMb()
    val problems = Construct.check(out)
    val e2e = Seq(Metric("setup_s", setupS, "s"), Metric("heap_mb", heap, "MB"),
      Metric("onboard_s", t.onboardS, "s"), Metric("delta_s", t.deltaS, "s"),
      Metric("publish_s", t.publishS, "s"))
    val layers = work.toSeq.flatMap { wc =>
      WorkCounter.drain(spark.sparkContext)
      Layers.spark(wc.jobs, tr, Seq("construct.onboard", "construct.delta", "construct.publish")) ++
        Layers.construct(wc.jobs, tr, out) ++ Layers.spans(tr)
    }
    Report(e2e, layers ++ gcMetrics(gc), 3, 0, problems)
  }

  // ------------------------------------------------------------ live-write

  /** For `--seconds`, reads at `ReadRate` with the writer active in every
    * other window; a traced run then climbs the read-only rate ladder.
    */
  def liveWrite(spark: SparkSession, a: Args, tr: Tracer, scale: Int = LiveScale): Report = {
    val windows = math.max(2, (a.seconds * 1e9 / WindowNs).toInt)
    val perWindow = (WriteRate * WindowNs / 1e9).toInt
    val nWrites = windows / 2 * perWindow
    val s = new Live.Store(spark, scale, a.seed, LiveEvents, nWrites, tr)
    warmUp(s, a.seed)
    val curations = Live.curations(s, a.seed).take(nWrites / 3 + 1).toIndexedSeq
    val qs = new Live.Queries(s.u, a.seed)
    def reads(n: Int, rate: Double, t: Tracer) = LoadGen.fixedRate(n, rate, 0).map { due =>
      val q = qs.next()
      LoadGen.Op(due, 0, q.shape, () => Live.runQuery(s, q, t))
    }
    val setupS = Main.sinceStart()

    val violations = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val writes = (0 until nWrites).map { i =>
      val due = (2 * (i / perWindow) + 1) * WindowNs + (i % perWindow) * WindowNs / perWindow
      if (i % 3 < 2) {
        val ev = s.allEvents(LiveEvents + i)
        LoadGen.Op(due, 1, "write.event", () => writeEvent(s, ev, tr))
      } else {
        val c = curations(i / 3)
        LoadGen.Op(due, 1, "write.curate", () => curate(s, c, tr),
          after = () => Live.readYourWrite(s, c).foreach(violations.add))
      }
    }
    val nReads = (ReadRate * windows * WindowNs / 1e9).toInt
    val gc0 = Main.gcTotals()
    val mixed = LoadGen.run((reads(nReads, ReadRate, tr) ++ writes).sortBy(_.dueNs), Seq(Readers, 1), GraceNs)
    val gc = Main.gcTotals() - gc0
    val heap = Main.heapMb()
    // The ladder's reads are not traced: the trace probes would add their
    // own cost to every query and lower the rate the read path sustains.
    val rungs = if (tr.on) ladder(reads(_, _, new Tracer(false))) else Nil

    import scala.jdk.CollectionConverters._
    val written = writes.indices.filter(_ % 3 < 2).map(i => s"live:${s.allEvents(LiveEvents + i).eventId}")
    val missing = written.filterNot(id => s.live.kv.get(id).exists(_.get("type").contains(Seq("sports_game"))))
    val outs = rungs.flatMap(_._2) :+ mixed
    val problems = violations.asScala.toSeq.take(5) ++
      (if (missing.nonEmpty) Seq(s"${missing.size} written events not in the KV store") else Nil) ++
      referenceCheck(s, a.seed) ++ outs.flatMap(_.errors)

    // End-to-end timings are service times (start → end of the call). At
    // these rates the readers and the writer are mostly idle, so the wait
    // from due time to start is the machine's scheduling, not the program's
    // queueing; it is reported per layer.
    val writer = (x: LoadGen.Sample) => (x.dueNs / WindowNs) % 2 == 1
    val (rBeside, rAlone) = mixed.samples.filterNot(x => isWrite(x.tag)).partition(writer)
    val (r, alone) = (rBeside.map(_.serviceMs), rAlone.map(_.serviceMs))
    val w = mixed.service(isWrite)
    val e2e = Seq(Metric("setup_s", setupS, "s"), Metric("heap_mb", heap, "MB"),
      Metric("query_p50_ms", Stats.median(r), "ms"), Metric("read_only_p50_ms", Stats.median(alone), "ms"),
      Metric("write_p50_ms", Stats.median(w), "ms"))
    val load = Seq(
      Metric("query.p99_ms", p99(r), "ms"), Metric("read_only.p99_ms", p99(alone), "ms"),
      Metric("write.tail_ms", Stats.tail(w)._2, "ms"),
      Metric("query.due_ms.p50", Stats.median(rBeside.map(_.latencyMs)), "ms"),
      Metric("query.due_ms.p99", p99(rBeside.map(_.latencyMs)), "ms"),
      Metric("query.wait_ms.p50", Stats.median(rBeside.map(_.waitMs)), "ms"),
      Metric("query.wait_ms.p99", Stats.tail(rBeside.map(_.waitMs))._2, "ms"),
      Metric("gen.late_ms.p99", Stats.tail(mixed.lateMs)._2, "ms"))
    val layers = if (tr.on) sustained(rungs) +: (Layers.live(tr, s) ++ Layers.spans(tr)) else Nil
    Report(e2e, load ++ layers ++ gcMetrics(gc), outs.map(_.attempted).sum, outs.map(_.failed).sum, problems)
  }

  /** Climb the read-only ladder until a rung misses the limit, fails an
    * operation or falls behind its offered rate twice in a row: a rung that
    * misses once is run again, so that one stall of the machine does not
    * end the climb.
    */
  private def ladder(reads: (Int, Double) => IndexedSeq[LoadGen.Op]): List[(Double, List[LoadGen.Outcome])] = {
    def rung(rate: Double, attempt: Int): LoadGen.Outcome = {
      val o = LoadGen.run(reads(RungQueries, rate), Seq(Readers), RungGraceNs)
      val l = o.latencies(_ => true)
      println(f"read-only rung $rate%6.0f/s${if (attempt > 1) " again" else "      "}  queries ${o.attempted}%4d  failed ${o.failed}%2d  p50 ${Stats.median(l)}%7.3f ms  p99 ${p99(l)}%8.3f ms  achieved ${throughput(o)}%6.1f/s")
      o
    }
    def climb(rates: List[Double]): List[(Double, List[LoadGen.Outcome])] = rates match {
      case rate :: rest =>
        val first = rung(rate, 1)
        val tries = if (passes(rate, first)) List(first) else List(first, rung(rate, 2))
        (rate -> tries) :: (if (passes(rate, tries.last)) climb(rest) else Nil)
      case Nil => Nil
    }
    climb(Ladder.toList)
  }

  private def passes(rate: Double, o: LoadGen.Outcome): Boolean =
    o.failed == 0 && p99(o.latencies(_ => true)) <= LimitMs && throughput(o) >= 0.95 * rate

  /** The achieved rate of the highest rung that passed. */
  private def sustained(rungs: List[(Double, List[LoadGen.Outcome])]): Metric = {
    val passing = rungs.filter { case (rate, tries) => passes(rate, tries.last) }
    if (passing.size == Ladder.size) println("every rung passed: kgq.sustained_qps is a lower bound")
    Metric("kgq.sustained_qps", passing.lastOption.map(r => throughput(r._2.last)).getOrElse(0.0), "1/s")
  }

  /** p99, or NaN (not reported, failing a rung) when fewer than ten
    * samples would lie beyond it.
    */
  private def p99(xs: Seq[Double]): Double =
    if (xs.size < 1000) Double.NaN else Stats.percentile(xs, 99)

  private def gcMetrics(gc: Main.Gc): Seq[Metric] =
    Seq(Metric("jvm.gc_ms", gc.timeMs, "ms"), Metric("jvm.gc_count", gc.count, "count"))

  /** Writer operations are tagged `write.*`; reads by their query shape. */
  def isWrite(tag: String): Boolean = tag.startsWith("write.")

  private def throughput(o: LoadGen.Outcome): Double =
    if (o.samples.isEmpty) 0.0
    else o.completed / ((o.samples.map(_.endNs).max - o.samples.map(_.dueNs).min) / 1e9)

  /** Let the JIT compile the read and write paths, then start timing on a
    * clean heap. The warm-up writes leave the store as it was: they upsert
    * the events loaded at set-up again and edit occupations to themselves.
    */
  private def warmUp(s: Live.Store, seed: Long): Unit = {
    val qs = new Live.Queries(s.u, seed + 1)
    val texts = (0 until WarmQueries).map(_ => qs.next().text)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(Readers)
    try texts.map(t => pool.submit(() => s.engine.query(t))).foreach(_.get())
    finally pool.shutdown()
    val off = new Tracer(false)
    s.allEvents.take(LiveEvents).foreach(writeEvent(s, _, off))
    s.u.byType("person").take(LiveEvents / 2).map(p => KgBuilders.kgIdOf(p.id)).foreach { id =>
      s.live.kv.get(id).flatMap(_.get("occupation")).flatMap(_.headOption)
        .foreach(o => s.live.curate(LiveGraph.EditFact(id, "occupation", o, o)))
    }
    s.live.drainCorrections()
    System.gc()
  }

  /** The engine must agree with the brute-force reference on a fixed sample. */
  private def referenceCheck(s: Live.Store, seed: Long): Seq[String] = {
    val qs = new Live.Queries(s.u, seed + 2)
    val sample = (0 until 200).map { _ => val q = qs.next(); q -> s.engine.query(q.text) }
    Live.mismatches(s.snapshot(), sample).take(5).map(m => s"KGQ differs from reference: $m")
  }

  private def writeEvent(s: Live.Store, ev: repro.SynthKG.LiveEvent, tr: Tracer): Unit = {
    val (id, rec) = tr.timed("nerd.resolve_ms", Tracer.Ms) { LiveGraph.resolveEvent(ev, s.er) }
    tr.timed("live.upsert_ms", Tracer.Ms) { s.live.upsert(id, rec) }
    if (tr.on) Layers.indexProbe(s, id, tr)
  }

  private def curate(s: Live.Store, c: Live.Curation, tr: Tracer): Unit = {
    tr.timed("live.curate_ms", Tracer.Ms) { s.live.curate(c.action) }
    if (tr.on) Layers.indexProbe(s, c.action.subject, tr)
  }

  // -------------------------------------------------------------- contract

  /** The end-to-end metrics of BENCHMARK.json. Every workload must report
    * each of them, so the three timed slots carry a different timing per
    * workload (see README.md).
    */
  def contract(workload: String, e2e: Seq[Metric]): Seq[Metric] = {
    def v(n: String) = e2e.find(_.name == n).get.value
    val (t1, t2, t3) = workload match {
      case "construct" => (v("onboard_s") * 1e3, v("delta_s") * 1e3, v("publish_s") * 1e3)
      case _           => (v("query_p50_ms"), v("read_only_p50_ms"), v("write_p50_ms"))
    }
    Seq(Metric("setup_s", v("setup_s"), "s"), Metric("heap_mb", v("heap_mb"), "MB"),
      Metric("t1_ms", t1, "ms"), Metric("t2_ms", t2, "ms"), Metric("t3_ms", t3, "ms"))
  }
}
