package sagabench

import repro.ml.StringSim
import Stats.Metric

/** Per-layer metrics of a traced run, named by the program's modules:
  * `core`/`spark`, `construct`, `engine`, `live`, `ml` (`nerd.*`). Every
  * workload reports every name; a layer the workload does not exercise
  * reads 0.
  */
object Layers {

  /** Name and unit of every per-layer metric, in output order. */
  val Names: Seq[(String, String)] = Seq(
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count", "spark.failed_tasks" -> "count",
    "core.pin_jobs" -> "count", "spark.exec_s" -> "s", "spark.driver_s" -> "s", "spark.shuffle_mb" -> "MB",
    "construct.onboard_jobs" -> "count", "construct.delta_jobs" -> "count", "construct.publish_jobs" -> "count",
    "construct.link_jobs" -> "count", "construct.link_s" -> "s", "construct.cc_jobs" -> "count",
    "construct.truth_jobs" -> "count", "construct.truth_s" -> "s",
    "construct.consume_jobs" -> "count", "construct.consume_s" -> "s",
    "construct.jobs_per_batch" -> "count", "construct.touched_frac" -> "ratio",
    "engine.replay_s" -> "s", "engine.pivot_s" -> "s", "live.stableview_s" -> "s", "live.load_s" -> "s",
    "live.nerd_index_s" -> "s",
    "kgq.parse_us" -> "us", "index.lookup_us" -> "us", "kv.get_us" -> "us",
  ) ++ Live.Shapes.flatMap { case (sh, _) => Seq(s"kgq.exec_ms.$sh.p50" -> "ms", s"kgq.exec_ms.$sh.p99" -> "ms") } ++ Seq(
    "kgq.candidates" -> "count", "kgq.yield" -> "ratio", "kgq.sustained_qps" -> "1/s",
    "query.p99_ms" -> "ms", "read_only.p99_ms" -> "ms", "write.tail_ms" -> "ms",
    "query.due_ms.p50" -> "ms", "query.due_ms.p99" -> "ms",
    "query.wait_ms.p50" -> "ms", "query.wait_ms.p99" -> "ms", "gen.late_ms.p99" -> "ms",
    "nerd.resolve_ms" -> "ms", "live.upsert_ms" -> "ms", "live.curate_ms" -> "ms",
    "index.remove_ms" -> "ms", "index.add_ms" -> "ms", "kv.put_us" -> "us",
    "index.tokens" -> "count", "index.postings" -> "count", "kv.entities" -> "count",
    "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count",
  )

  /** Every per-layer name, 0 where the workload did not measure it. */
  def complete(measured: Seq[Metric]): Seq[Metric] = {
    val byName = measured.filterNot(_.value.isNaN).map(m => m.name -> m.value).toMap
    Names.map { case (n, u) => Metric(n, byName.getOrElse(n, 0.0), u) }
  }

  private def jobsIn(jobs: Seq[JobRecord], s: Tracer#Span): Seq[JobRecord] =
    jobs.filter(j => j.startMs >= s.startMs && j.startMs <= s.endMs)

  /** Seconds of `span` during which no Spark job ran: planning, scheduling
    * and driver-side work.
    */
  private def driverSeconds(jobs: Seq[JobRecord], s: Tracer#Span): Double = {
    val busy = jobs.sortBy(_.startMs).foldLeft((0L, s.startMs)) { case ((acc, cursor), j) =>
      val from = math.max(cursor, j.startMs); val to = math.min(s.endMs, j.endMs)
      (acc + math.max(0L, to - from), math.max(cursor, to))
    }._1
    math.max(0L, s.endMs - s.startMs - busy) / 1e3
  }

  /** Spark work inside the named spans. */
  def spark(jobs: Seq[JobRecord], tr: Tracer, phases: Seq[String]): Seq[Metric] = {
    val spans = phases.flatMap(tr.spansNamed)
    val in = spans.flatMap(jobsIn(jobs, _)).distinct
    Seq(Metric("spark.jobs", in.size, "count"), Metric("spark.stages", in.map(_.stages).sum, "count"),
      Metric("spark.tasks", in.map(_.tasks).sum, "count"),
      Metric("spark.failed_tasks", in.map(_.failedTasks).sum, "count"),
      Metric("core.pin_jobs", in.count(_.viaPin), "count"),
      Metric("spark.exec_s", in.map(_.execMs).sum / 1e3, "s"),
      Metric("spark.driver_s", spans.map(s => driverSeconds(jobsIn(jobs, s), s)).sum, "s"),
      Metric("spark.shuffle_mb", in.map(_.shuffleBytes).sum / (1024.0 * 1024.0), "MB")) ++
      phases.map(p => Metric(s"${p}_jobs",
        Stats.median(tr.spansNamed(p).map(jobsIn(jobs, _).size.toDouble)), "count"))
  }

  /** Construction jobs attributed to the function that ran them. */
  def construct(jobs: Seq[JobRecord], tr: Tracer, out: Construct.Output): Seq[Metric] = {
    val in = Seq("construct.onboard", "construct.delta").flatMap(tr.spansNamed).flatMap(jobsIn(jobs, _))
    def secs(js: Seq[JobRecord]) = js.map(_.wallMs).sum / 1e3
    val link = in.filter(_.within("Linking.run"))
    val truth = in.filter(_.within("Fusion.truthDiscovery"))
    val consume = in.filter(j => j.innermost.startsWith("Construction."))
    Seq(Metric("construct.link_jobs", link.size, "count"), Metric("construct.link_s", secs(link), "s"),
      Metric("construct.cc_jobs", in.count(_.innermost.startsWith("CorrelationClustering.")), "count"),
      Metric("construct.truth_jobs", truth.size, "count"), Metric("construct.truth_s", secs(truth), "s"),
      Metric("construct.consume_jobs", consume.size, "count"), Metric("construct.consume_s", secs(consume), "s"),
      // each bootstrapped source's delta plus the onboarded source
      Metric("construct.jobs_per_batch", in.size.toDouble / (1 + Construct.Bootstrapped.size), "count"),
      Metric("construct.touched_frac",
        if (out.kgSubjects == 0) 0.0 else out.touchedSubjects.toDouble / out.kgSubjects, "ratio"))
  }

  /** Durations of the set-up and publish spans, the median where a step
    * ran more than once.
    */
  def spans(tr: Tracer): Seq[Metric] =
    Seq("engine.replay", "engine.pivot", "live.stableview", "live.load", "live.nerd_index").map { n =>
      Metric(s"${n}_s", Stats.median(tr.spansNamed(n).map(_.seconds)), "s")
    }

  /** Live read and write path samples and the size of the live stores. */
  def live(tr: Tracer, s: Live.Store): Seq[Metric] = {
    def med(n: String) = Stats.median(tr.samplesOf(n))
    val cands = tr.samplesOf("kgq.candidates")
    val snap = s.snapshot()
    val postings = snap.iterator.map { case (_, rec) =>
      rec.valuesIterator.map { vs => vs.flatMap(StringSim.tokens).distinct.size.toLong }.sum
    }.sum
    Seq("kgq.parse_us", "index.lookup_us", "kv.get_us", "nerd.resolve_ms", "live.upsert_ms",
      "live.curate_ms", "index.remove_ms", "index.add_ms", "kv.put_us").map(n => Metric(n, med(n), "")) ++
      Live.Shapes.flatMap { case (sh, _) =>
        val xs = tr.samplesOf(s"kgq.exec_ms.$sh")
        Seq(Metric(s"kgq.exec_ms.$sh.p50", Stats.median(xs), "ms"), Metric(s"kgq.exec_ms.$sh.p99", Stats.tail(xs)._2, "ms"))
      } ++ Seq(
      Metric("kgq.candidates", Stats.median(cands), "count"),
      Metric("kgq.yield", if (cands.isEmpty) 0.0 else tr.samplesOf("kgq.rows").sum / cands.sum, "ratio"),
      Metric("index.tokens", s.live.index.tokenCount, "count"), Metric("index.postings", postings, "count"),
      Metric("kv.entities", s.live.kv.size, "count"))
  }

  /** Re-apply the index maintenance of a just-written record and time it;
    * the index ends as it was.
    */
  def indexProbe(s: Live.Store, id: String, tr: Tracer): Unit =
    s.live.kv.get(id).foreach { rec =>
      tr.timed("index.remove_ms", Tracer.Ms) { s.live.index.remove(id) }
      tr.timed("index.add_ms", Tracer.Ms) { s.live.index.indexRecord(id, rec) }
      tr.timed("kv.put_us", Tracer.Us) { s.live.kv.put(id, rec) }
    }
}
