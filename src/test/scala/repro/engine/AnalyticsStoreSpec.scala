package repro.engine

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthKG}
import repro.exp.KgBuilders

/** The analytics store (§3.1.1): shared pivot vs legacy per-view jobs —
  * the two paths must produce identical relations (E1's correctness leg).
  */
class AnalyticsStoreSpec extends SparkSpec {

  private lazy val u = SynthKG.universe(6)
  private lazy val kg = repro.core.Dataflow.pin(KgBuilders.directKG(spark, u))

  test("basePivot has one row per subject") {
    val p = AnalyticsStore.basePivot(kg)
    assert(p.count() == kg.select("subject").distinct().count())
  }

  test("basePivot flattens composite predicates as pred.rpred keys") {
    val p = AnalyticsStore.basePivot(kg)
    val person = p.filter(col("props").getItem("type") === "person").head()
    val props = person.getAs[Map[String, String]]("props")
    assert(props.contains("educated_at.school"))
  }

  /** A store that replayed `kg`: its `view` is what the analytics engine serves. */
  private lazy val served = {
    val store = new AnalyticsStore.Store
    store.stage("v1", kg)
    store.replay(OpLog.Op(1, "snapshot", "v1"))
    store
  }

  /** The optimized view, from the shared pivot and as the store serves it. */
  private def optimizedViews(etype: String, preds: Seq[String]) =
    Seq(AnalyticsStore.entityView(AnalyticsStore.basePivot(kg), etype, preds), served.view(etype, preds))

  test("optimized and legacy views are identical for persons") {
    val preds = Seq("name", "birth_year", "occupation", "educated_at.school")
    val leg = AnalyticsStore.legacyEntityView(kg, "person", preds)
    optimizedViews("person", preds).foreach { opt =>
      assert(opt.columns.toSeq == leg.columns.toSeq)
      Oracle.assertEquivalent(opt,
        "SELECT id, name, birth_year, occupation, educated_at_school FROM legacy",
        "legacy" -> leg)
    }
  }

  test("optimized and legacy views are identical for the narrow songs view") {
    val preds = Seq("name", "recorded_by")
    val leg = AnalyticsStore.legacyEntityView(kg, "song", preds)
    optimizedViews("song", preds).foreach { opt =>
      Oracle.assertEquivalent(opt, "SELECT id, name, recorded_by FROM legacy", "legacy" -> leg)
    }
  }

  test("views cover exactly the entities of the requested type") {
    val opt = AnalyticsStore.entityView(AnalyticsStore.basePivot(kg), "team", Seq("name"))
    assert(opt.count() == u.byType("team").size)
  }

  test("missing predicates surface as nulls in both paths") {
    val preds = Seq("name", "death_year") // death_year never generated
    val opt = AnalyticsStore.entityView(AnalyticsStore.basePivot(kg), "person", preds)
    assert(opt.filter(col("death_year").isNotNull).count() == 0)
    val leg = AnalyticsStore.legacyEntityView(kg, "person", preds)
    assert(leg.filter(col("death_year").isNotNull).count() == 0)
  }

  test("the Store agent replays snapshots and serves views") {
    val store = new AnalyticsStore.Store
    store.stage("v1", kg)
    store.replay(OpLog.Op(1, "snapshot", "v1"))
    assert(store.view("movie", Seq("name", "release_year")).count() == u.byType("movie").size)
  }

  test("the Store rejects unknown operation kinds") {
    val store = new AnalyticsStore.Store
    intercept[IllegalArgumentException] { store.replay(OpLog.Op(1, "garbage", "x")) }
  }

  test("the Store refuses to serve before the first replay") {
    intercept[IllegalStateException] { new AnalyticsStore.Store().triples }
  }

  test("replaying a new snapshot invalidates the pivot") {
    val store = new AnalyticsStore.Store
    store.stage("v1", kg)
    store.replay(OpLog.Op(1, "snapshot", "v1"))
    val n1 = store.view("city", Seq("name")).count()
    val smaller = kg.limit(0)
    store.stage("v2", smaller)
    store.replay(OpLog.Op(2, "snapshot", "v2"))
    assert(store.view("city", Seq("name")).count() == 0)
    assert(n1 > 0)
  }
}
