package repro.exp

import repro.SparkSpec

/** Tiny-scale smoke runs of every evaluation harness (E1–E9), so bench
  * regressions are caught in the unit-test cycle. Shape assertions live
  * in `bench/` at full scale; here we only require the harnesses to run
  * and produce structurally sound reports.
  */
class ExperimentsSmokeSpec extends SparkSpec {

  test("E1 harness runs and verifies optimized/legacy cardinality equality") {
    val res = ViewExperiments.runE1(spark, scale = 8)
    assert(res.rows.size == ViewExperiments.viewDefs.size)
    assert(res.rows.forall(r => r.legacySec > 0 && r.optimizedSec > 0))
    assert(res.table.contains("song"))
  }

  test("E2 harness computes both modes with the expected recompute counts") {
    val res = ViewExperiments.runE2(spark, scale = 8)
    assert(res.computeCounts("entity_features") == 3)
    assert(res.withReuseSec > 0 && res.withoutReuseSec > 0)
  }

  test("E3 harness produces a monotone quarterly series") {
    val res = GrowthExperiment.run(spark, scale = 6, quarters = 4, sagaQuarter = 1)
    assert(res.stats.size == 4)
    assert(res.stats.last.facts >= res.stats.head.facts)
    assert(res.stats.last.factsRel >= 1.0)
  }

  test("E4 harness sweeps thresholds and reports sane precision/recall") {
    val res = NerdExperiments.runE4(spark, scale = 15, nMentions = 120)
    assert(res.rows.map(_.threshold) == Seq(0.5, 0.6, 0.7, 0.8, 0.9))
    res.rows.foreach { r =>
      assert(r.nerd.precision >= 0 && r.nerd.precision <= 1)
      assert(r.nerd.recall >= 0 && r.nerd.recall <= 1)
    }
  }

  test("E5 harness evaluates three systems on identical records") {
    val res = NerdExperiments.runE5(spark, scale = 15, nRecords = 100)
    assert(res.base.total == 100 && res.nerd.total == 100 && res.nerdTyped.total == 100)
  }

  test("E6 harness reports operating points for both matchers") {
    val res = SimRecallExperiment.run(spark, scale = 30)
    assert(res.deterministic.recall >= 0 && res.learned.recall <= 1.0)
    assert(res.learned.recall >= res.deterministic.recall - 0.05)
  }

  test("E7 harness measures latency percentiles under a concurrent workload") {
    val res = LiveLatencyExperiment.run(spark, scale = 15, nQueries = 200, threads = 4)
    assert(res.queries == 200)
    assert(res.p50Ms <= res.p95Ms && res.p95Ms <= res.p99Ms)
  }

  test("E7 reports only the queries that completed and fails on a timeout") {
    import scala.concurrent.duration._
    val boom = (q: String) => if (q == "boom") throw new IllegalStateException(q)
    val res = LiveLatencyExperiment.measure(Seq("ok", "boom", "ok"), threads = 2, 1.minute)(boom)
    assert(res.queries == 2 && res.qps > 0)
    val none = LiveLatencyExperiment.measure(Seq("boom"), threads = 1, 1.minute)(boom)
    assert(none.queries == 0 && none.p50Ms.isNaN)
    intercept[IllegalStateException] {
      LiveLatencyExperiment.measure(Seq("slow"), threads = 1, 50.millis)(_ => Thread.sleep(5000))
    }
  }

  test("E8 harness times all four legs") {
    val res = IncrementalExperiment.run(spark, scale = 10)
    assert(res.fullSec > 0 && res.incrementalSec > 0)
    assert(res.overwriteSec > 0 && res.joinFusionSec > 0)
    assert(res.deltaFrac >= 0 && res.deltaFrac <= 1.0)
  }

  test("E9 harness trains and evaluates both embedding models") {
    val res = EmbeddingExperiment.run(spark, scale = 10, heldOut = 30)
    assert(res.models.map(_.kind) == Seq("TransE", "DistMult"))
    res.models.foreach(m => assert(m.aucLike >= 0 && m.aucLike <= 1))
  }
}
