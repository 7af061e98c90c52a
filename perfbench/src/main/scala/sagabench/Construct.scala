package sagabench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthKG
import repro.construct.{Construction, Matching}
import repro.core.Schema
import repro.engine.{AnalyticsStore, OpLog}
import repro.exp.KgBuilders
import repro.live.LiveGraph

/** The `construct` workload: bootstrap a source, then time the
  * onboarding of a new source, one epoch of diffs of the bootstrapped
  * sources, and the publication of the KG to the analytics store and a
  * fresh live graph. Truth discovery runs, as in production.
  */
object Construct {

  val Bootstrapped: Seq[String] = Seq("wiki")
  val Onboarded = "fanwiki"
  val PublishRuns = 5
  val PublishWarmUps = 2

  final case class Output(
      state: Construction.KGState,
      /** the published live graph, held so that `heap_mb` counts it */
      live: LiveGraph,
      /** source record id → true entity id, over every consumed record */
      truth: Map[String, String],
      /** source record id → source, for records present at epoch 0 and gone at epoch 1 */
      deleted: Map[String, String],
      bootLinks: Map[String, String],
      touchedSubjects: Long,
      kgSubjects: Long,
  )

  final case class Timings(onboardS: Double, deltaS: Double, publishS: Double)

  private def cfg(name: String) = SynthKG.sourceConfigs.find(_.name == name).get

  /** Everything before the first timed operation. */
  final class Prepared(val spark: SparkSession, scale: Int, seed: Long) {
    val u: SynthKG.Universe = SynthKG.universe(scale, seed)
    val model: Matching.Model = Matching.defaultModel(Some(KgBuilders.encoderFor(u)))
    val boot: Construction.KGState = Construction.consumeAll(
      Construction.KGState.empty(spark),
      Bootstrapped.map(s => KgBuilders.payloadFor(spark, u, cfg(s), 0, None)), model)._1
    val onboard: Construction.SourcePayload = KgBuilders.payloadFor(spark, u, cfg(Onboarded), 1, None)
    val deltas: Seq[Construction.SourcePayload] =
      Bootstrapped.map(s => KgBuilders.payloadFor(spark, u, cfg(s), 1, Some((cfg(s), 0))))

    def records(src: String, epoch: Int): Seq[SynthKG.SourceRecord] =
      SynthKG.sourceRecords(u, cfg(src), epoch)
  }

  def run(p: Prepared, tr: Tracer): (Output, Timings) = {
    val spark = p.spark
    val t0 = System.nanoTime()
    val s1 = tr.span("construct.onboard") {
      Construction.consume(p.boot, p.onboard, p.model)._1
    }
    val t1 = System.nanoTime()
    val s2 = tr.span("construct.delta") {
      Construction.consumeAll(s1, p.deltas, p.model)._1
    }
    val t2 = System.nanoTime()
    // Publishing takes under a second and is the noisiest step, so it runs
    // `PublishRuns` times into fresh stores and its median is reported. The
    // first `PublishWarmUps` publications run code paths the construction
    // steps did not and are slower; they are not counted. Only the last
    // publication stays cached, as it would in a single run.
    val published = (1 to PublishWarmUps + PublishRuns).map { i =>
      val t = System.nanoTime()
      val (store, live) = tr.span("construct.publish") { publish(spark, s2, tr) }
      val secs = (System.nanoTime() - t) / 1e9
      if (i < PublishWarmUps + PublishRuns) store.pivot.unpersist()
      (live, secs)
    }
    val live = published.last._1

    // Inputs for the output checks and the trace; not timed.
    val truth = (Bootstrapped.flatMap(s => p.records(s, 0) ++ p.records(s, 1)) ++
      p.records(Onboarded, 1)).map(r => r.id -> r.trueId).toMap
    val deleted = Bootstrapped.flatMap { s =>
      val now = p.records(s, 1).map(_.id).toSet
      p.records(s, 0).map(_.id).filterNot(now).map(_ -> s)
    }.toMap
    val bootLinks = collectLinks(p.boot.links)
    val touched = if (tr.on) touchedSubjects(p, s1) else 0L
    val out = Output(s2, live, truth, deleted, bootLinks, touched, if (tr.on) s2.entityCount() else 0L)
    (out, Timings((t1 - t0) / 1e9, (t2 - t1) / 1e9, Stats.median(published.drop(PublishWarmUps).map(_._2))))
  }

  /** Snapshot → OpLog → analytics store (pivot materialized), and the
    * stable view loaded into a fresh live graph.
    */
  def publish(spark: SparkSession, kg: Construction.KGState, tr: Tracer): (AnalyticsStore.Store, LiveGraph) = {
    val log = new OpLog.Log
    val meta = new OpLog.MetadataStore
    val store = new AnalyticsStore.Store
    val orch = new OpLog.Orchestrator(log, meta, Seq(store))
    val full = kg.full
    store.stage("kg@1", full)
    log.append("snapshot", "kg@1")
    tr.span("engine.replay") { orch.drain() }
    tr.span("engine.pivot") { store.pivot }
    val view = tr.span("live.stableview") { LiveGraph.stableView(full) }
    val live = new LiveGraph()
    tr.span("live.load") { live.loadStable(view) }
    (store, live)
  }

  def collectLinks(links: DataFrame): Map[String, String] =
    links.select("srcId", "kgId").collect().map(r => r.getString(0) -> r.getString(1)).toMap

  /** KG subjects the delta epoch's Updated and Deleted records link to. */
  private def touchedSubjects(p: Prepared, before: Construction.KGState): Long = {
    val ids = p.deltas.map(d => d.updated.select(Schema.Subject).union(d.deleted.select(Schema.Subject)))
      .reduce(_ union _).withColumnRenamed(Schema.Subject, "srcId")
    ids.join(before.links, Seq("srcId")).select("kgId").distinct().count()
  }

  // ----------------------------------------------------------- checks

  final case class LinkQuality(precision: Double, recall: Double, records: Int)

  /** Pairwise precision and recall of the link table against ground truth:
    * a pair of source records is predicted linked when they share a KG id,
    * and truly linked when they share a true entity.
    */
  def linkQuality(links: Map[String, String], truth: Map[String, String]): LinkQuality = {
    val recs = links.keys.filter(truth.contains).toSeq
    def pairs(groups: Iterable[Int]): Double = groups.map(n => n.toDouble * (n - 1) / 2).sum
    val predicted = pairs(recs.groupBy(links).values.map(_.size))
    val actual = pairs(recs.groupBy(truth).values.map(_.size))
    val both = pairs(recs.groupBy(r => (links(r), truth(r))).values.map(_.size))
    LinkQuality(if (predicted == 0) 1.0 else both / predicted,
                if (actual == 0) 1.0 else both / actual, recs.size)
  }

  /** Floors set from the seed code at the default scale (observed values
    * minus a margin for seed-to-seed variation).
    */
  val MinPrecision = 0.55
  val MinRecall = 0.65

  /** Every failed check, empty when the output is correct. */
  def check(out: Output): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val links = collectLinks(out.state.links)
    val q = linkQuality(links, out.truth)
    println(f"link precision ${q.precision}%.4f recall ${q.recall}%.4f over ${q.records} source records")
    if (q.precision < MinPrecision) errs += f"link precision ${q.precision}%.4f < $MinPrecision"
    if (q.recall < MinRecall) errs += f"link recall ${q.recall}%.4f < $MinRecall"
    if (q.records < out.truth.size - out.deleted.size) errs += s"only ${q.records} source records linked"
    errs ++= invariants(out.state.stable)
    errs ++= retracted(out, links)
    errs.result()
  }

  /** Every fact has provenance aligned with its trust scores, and `conf` ∈ [0,1]. */
  def invariants(stable: DataFrame): Seq[String] = {
    val bad = stable.filter(
      col(Schema.Sources).isNull || size(col(Schema.Sources)) === 0 ||
      size(col(Schema.Sources)) =!= size(col(Schema.Trust)) ||
      col(Schema.Conf).isNull || col(Schema.Conf) < 0 || col(Schema.Conf) > 1).count()
    if (bad > 0) Seq(s"$bad facts without provenance or with conf outside [0,1]") else Seq.empty
  }

  /** Deleted source records have no link, and their source no longer
    * supports facts of the KG entity they were linked to (unless another
    * record of that source still links there).
    */
  def retracted(out: Output, links: Map[String, String]): Seq[String] = {
    val spark = out.state.stable.sparkSession
    import spark.implicits._
    val stillLinked = out.deleted.keys.filter(links.contains)
    val supportedBy = links.toSeq.map { case (s, k) => (k, s.takeWhile(_ != ':')) }.toSet
    val expectGone = out.deleted.toSeq.flatMap { case (srcId, src) =>
      out.bootLinks.get(srcId).filterNot(k => supportedBy((k, src))).map(k => (k, src))
    }.distinct
    val lingering =
      if (expectGone.isEmpty) 0L
      else out.state.stable
        .join(expectGone.toDF("__k", "__src"), col(Schema.Subject) === col("__k"))
        .filter(array_contains(col(Schema.Sources), col("__src"))).count()
    (if (stillLinked.nonEmpty) Seq(s"${stillLinked.size} deleted source records still linked") else Nil) ++
      (if (lingering > 0) Seq(s"$lingering facts still supported by a deleted source record") else Nil)
  }
}
