package sagabench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schema
import repro.live.LiveGraph

/** The benchmark's own test: every workload runs once at a tiny size on a
  * seed the measured runs do not use, and every output check is shown to
  * reject a tampered result.
  */
class BenchSpec extends AnyFunSuite {

  lazy val spark: SparkSession = repro.jobs.Jobs.session("perfbench-test")
  val Seed = 20261017L

  test("open-loop generator counts unfinished operations as failed") {
    val slow = LoadGen.fixedRate(4, 100, 0).map(d => LoadGen.Op(d, 0, "slow", () => Thread.sleep(400)))
    val out = LoadGen.run(slow, Seq(1), graceNs = 100000000L)
    assert(out.attempted == 4)
    assert(out.completed < 4 && out.failed == 4 - out.completed && out.timedOut > 0)
    val boom = IndexedSeq(LoadGen.Op(0, 0, "boom", () => throw new IllegalStateException("x")))
    assert(LoadGen.run(boom, Seq(1), 1000000000L).failed == 1)
  }

  test("percentiles keep ten samples beyond the reported tail") {
    assert(Stats.tail((1 to 1000).map(_.toDouble)) == ("p99", 990.0))
    assert(Stats.tail((1 to 200).map(_.toDouble))._1 == "p95")
    assert(Stats.tail((1 to 5).map(_.toDouble)) == ("max", 5.0))
  }

  test("call sites attribute Spark jobs to the innermost program function") {
    val site =
      """repro.core.Dataflow$.pin(Dataflow.scala:25)
        |repro.construct.CorrelationClustering$.$anonfun$connectedComponents$1(CorrelationClustering.scala:44)
        |scala.collection.immutable.List.foreach(List.scala:334)
        |repro.construct.Linking$.run(Linking.scala:120)
        |repro.construct.Construction$.consume(Construction.scala:80)""".stripMargin
    val (frames, viaPin) = JobRecord.programFrames(site)
    assert(viaPin)
    assert(frames == Seq("CorrelationClustering.connectedComponents", "Linking.run", "Construction.consume"))
  }

  test("construct runs at a tiny size and its checks reject tampered output") {
    val p = new Construct.Prepared(spark, 3, Seed)
    val (out, t) = Construct.run(p, new Tracer(false))
    assert(t.onboardS > 0 && t.deltaS > 0 && t.publishS > 0)
    assert(Construct.check(out).isEmpty, Construct.check(out))

    // every source record linked to one KG entity: precision collapses
    val merged = out.state.links.select(col("srcId"), lit("kg:one").as("kgId"))
    assert(Construct.check(out.copy(state = out.state.copy(links = merged))).exists(_.contains("precision")))
    // one fact stripped of its provenance
    val first = out.state.stable.limit(1)
    val stripped = out.state.stable.except(first).unionByName(
      first.withColumn(Schema.Sources, array().cast("array<string>")))
    assert(Construct.invariants(stripped).nonEmpty)
    // a record the source deleted that is still linked
    val (srcId, _) = Construct.collectLinks(out.state.links).head
    assert(Construct.retracted(out.copy(deleted = Map(srcId -> "wiki")),
      Construct.collectLinks(out.state.links)).nonEmpty)
  }

  test("live-write runs at a tiny size and its checks reject tampered output") {
    val r = Workloads.liveWrite(spark, Main.Args("live-write", Seed, seconds = 2, trace = true),
      new Tracer(true), scale = 20)
    assert(r.problems.isEmpty, r.problems)
    assert(r.attempted > 0 && r.failed == 0)
    assert(r.perLayer.find(_.name == "kv.entities").exists(_.value > 0))
    assert(r.endToEnd.find(_.name == "read_only_p50_ms").exists(_.value > 0))
    assert(r.perLayer.find(_.name == "kgq.sustained_qps").exists(_.value > 0))

    val s = new Live.Store(spark, 20, Seed, 20, 0, new Tracer(false))
    // the KGQ reference: one answer with a row dropped
    val qs = new Live.Queries(s.u, Seed)
    val sample = (0 until 50).map { _ => val q = qs.next(); q -> s.engine.query(q.text) }
    assert(Live.mismatches(s.snapshot(), sample).isEmpty)
    val q = sample.find(_._2.nonEmpty).get._1
    val tampered = sample.map { case (x, got) => if (x == q) x -> got.tail else x -> got }
    assert(Live.mismatches(s.snapshot(), tampered).nonEmpty)
    // read-your-write: a curation that was never applied
    val Seq(applied, skipped) = Live.curations(s, Seed)
      .filter(_.action.isInstanceOf[LiveGraph.EditFact]).take(2).toSeq
    s.live.curate(applied.action)
    assert(Live.readYourWrite(s, applied).isEmpty)
    assert(Live.readYourWrite(s, skipped).nonEmpty)
  }
}
