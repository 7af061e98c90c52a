package sagabench

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.SynthKG
import repro.core.Dataflow
import repro.exp.KgBuilders
import repro.live.{KGQ, LiveGraph}
import repro.live.Stores.Record
import repro.ml.{Nerd, StringSim}

/** The live graph under KGQ reads (`live-read`) and under reads beside a
  * writer of events and curations (`live-write`).
  */
object Live {

  /** The served store: the direct KG's stable view plus resolved events. */
  final class Store(val spark: SparkSession, scale: Int, seed: Long, events: Int, writerEvents: Int,
                    tr: Tracer) {
    val u: SynthKG.Universe = SynthKG.universe(scale, seed)
    val live = new LiveGraph()
    private val kg = Dataflow.pin(KgBuilders.directKG(spark, u))
    private val view = tr.span("live.stableview") { LiveGraph.stableView(kg) }
    tr.span("live.load") { live.loadStable(view) }
    /** The entity-resolution index that resolves event references. Entity
      * importance is the universe's popularity rather than the analytics
      * engine's PageRank view, which would dominate set-up with Spark jobs
      * the live path never runs.
      */
    val er: Nerd.Index = tr.span("live.nerd_index") {
      import spark.implicits._
      val importance = u.entities.map(e => (KgBuilders.kgIdOf(e.id), e.popularity)).toDF("id", "importance")
      new Nerd.Index(Nerd.buildEntries(kg, importance), KgBuilders.encoderFor(u))
    }
    /** Events beyond the ones loaded at set-up are the writer's. */
    val allEvents: IndexedSeq[SynthKG.LiveEvent] =
      SynthKG.liveEvents(u, events + writerEvents, seed + 17).toIndexedSeq
    allEvents.take(events).foreach(ev => live.ingest(LiveGraph.resolveEvent(ev, er)))
    val engine = new KGQ.Engine(live.kv, live.index)

    def snapshot(): Map[String, Record] =
      live.kv.ids.flatMap(id => live.kv.get(id).map(id -> _)).toMap
  }

  // ------------------------------------------------------------ queries

  /** Query shapes and how many of every 20 queries each takes. Only
    * `scan` drives from a large posting set and relies on `LIMIT` to stop
    * early.
    */
  val Shapes: Seq[(String, Int)] =
    Seq("name" -> 7, "hop" -> 2, "event" -> 4, "contains" -> 5, "scan" -> 2)

  /** The shapes of 20 consecutive queries, interleaved evenly (smooth
    * weighted round-robin) so every run has the same mix and spacing.
    */
  val Cycle: IndexedSeq[String] = {
    val credit = Array.fill(Shapes.size)(0)
    val total = Shapes.map(_._2).sum
    (0 until total).map { _ =>
      Shapes.indices.foreach(i => credit(i) += Shapes(i)._2)
      val k = credit.indices.maxBy(i => (credit(i), -i))
      credit(k) -= total
      Shapes(k)._1
    }
  }

  final case class Q(shape: String, text: String)

  /** The benchmark's own query generator over the universe. */
  final class Queries(u: SynthKG.Universe, seed: Long) {
    private val rnd = new Random(seed)
    private val persons = u.byType("person").toIndexedSeq
    private val cities = u.byType("city").toIndexedSeq
    private val teams = u.byType("team").toIndexedSeq
    private def pick[A](xs: IndexedSeq[A]): A = xs(rnd.nextInt(xs.size))
    private var i = 0

    def next(): Q = {
      i += 1
      Cycle(i % Cycle.size) match {
        case "name" =>
          Q("name", s"""FIND person WHERE name = "${pick(persons).name}" RETURN birthplace, birth_year""")
        case "hop" =>
          Q("hop", s"""FIND person WHERE birthplace -> (name = "${pick(cities).name}") RETURN name LIMIT 10""")
        case "event" =>
          Q("event", s"""FIND sports_game WHERE home_team -> (name = "${pick(teams).name}") RETURN home_score, away_score LIMIT 5""")
        case "contains" =>
          val p = pick(persons)
          Q("contains", s"""FIND person WHERE name ~ "${p.name.split(' ').last}" AND occupation = "${p.attrs("occupation")}" RETURN name, birth_year LIMIT 10""")
        case _ =>
          Q("scan", s"""FIND ${pick(IndexedSeq("person", "movie", "song"))} RETURN name LIMIT 10""")
      }
    }
  }

  /** Run one query; when tracing, time its layers separately and probe the
    * index for the size of the driving posting set.
    */
  def runQuery(s: Store, q: Q, tr: Tracer): Seq[KGQ.ResultRow] =
    if (!tr.on) s.engine.query(q.text)
    else {
      val parsed = tr.timed("kgq.parse_us", Tracer.Us) { KGQ.parse(q.text) }
      val rows = tr.timed(s"kgq.exec_ms.${q.shape}", Tracer.Ms) { s.engine.execute(parsed) }
      val lits = parsed.conds.collect { case KGQ.Eq(p, v) => (v, p); case KGQ.Contains(p, v) => (v, p) } ++
        parsed.etype.map(t => (t, "type"))
      val cands = tr.timed("index.lookup_us", Tracer.Us) {
        lits.map { case (v, p) => s.live.index.lookup(v, Some(p)).size }
      }
      val driving = if (cands.isEmpty) s.live.kv.size else cands.min
      tr.sample("kgq.candidates", driving)
      tr.sample("kgq.rows", rows.size)
      rows.headOption.foreach(r => tr.timed("kv.get_us", Tracer.Us) { s.live.kv.get(r.id) })
      rows
    }

  // ---------------------------------------------------- reference check

  /** Brute-force KGQ over a snapshot of the KV store: no index, every
    * record tested against every condition. The engine must return the
    * same rows.
    */
  private def reference(snap: Map[String, Record], sorted: Seq[(String, Record)],
                        q: KGQ.Query): Seq[KGQ.ResultRow] = {
    def norm(s: String) = StringSim.normalize(s)
    def holds(rec: Record, c: KGQ.Cond, depth: Int): Boolean = c match {
      case KGQ.Eq(p, v) => rec.getOrElse(p, Nil).exists(x => norm(x) == norm(v))
      case KGQ.Contains(p, v) =>
        val want = StringSim.tokens(v).toSet
        want.nonEmpty && rec.getOrElse(p, Nil).exists(x => want.subsetOf(StringSim.tokens(x).toSet))
      case KGQ.Hop(p, sub) =>
        depth < 4 && rec.getOrElse(p, Nil).exists(t => snap.get(t).exists(tr => sub.forall(holds(tr, _, depth + 1))))
    }
    sorted.iterator
      .filter { case (_, rec) =>
        q.etype.forall(t => rec.getOrElse("type", Nil).contains(t)) && q.conds.forall(holds(rec, _, 0))
      }
      .take(q.limit)
      .map { case (id, rec) =>
        KGQ.ResultRow(id, q.ret.map {
          case "*" => "*" -> rec.keys.toSeq.sorted
          case "id" => "id" -> Seq(id)
          case p => p -> rec.getOrElse(p, Seq.empty)
        }.toMap)
      }.toSeq
  }

  /** Queries of the sample whose engine answer differs from the reference. */
  def mismatches(snap: Map[String, Record], sample: Seq[(Q, Seq[KGQ.ResultRow])]): Seq[String] = {
    val sorted = snap.toSeq.sortBy(_._1)
    sample.collect {
      case (q, got) if got != reference(snap, sorted, KGQ.parse(q.text)) => s"${q.shape}: ${q.text}"
    }
  }

  // ------------------------------------------------------------- writes

  /** A curation of a stable entity and the read that must reflect it
    * once `curate` returned.
    */
  final case class Curation(action: LiveGraph.Curation, name: String, pred: String,
                            value: String, present: Boolean)

  /** Curations on distinct stable persons: a blocked alias or an edited
    * occupation.
    */
  def curations(s: Store, seed: Long): Iterator[Curation] = {
    val rnd = new Random(seed)
    val kv = s.live.kv
    rnd.shuffle(s.u.byType("person").toIndexedSeq).iterator.flatMap { p =>
      val id = KgBuilders.kgIdOf(p.id)
      kv.get(id).flatMap { rec =>
        val aliases = rec.getOrElse("alias", Nil)
        val occ = rec.getOrElse("occupation", Nil)
        if (rnd.nextBoolean() && aliases.nonEmpty) {
          val a = aliases(rnd.nextInt(aliases.size))
          Some(Curation(LiveGraph.BlockFact(id, "alias", a), p.name, "alias", a, present = false))
        } else occ.headOption.map { o =>
          val nw = SynthKG.occupations.filterNot(_ == o)(rnd.nextInt(SynthKG.occupations.size - 1))
          Curation(LiveGraph.EditFact(id, "occupation", o, nw), p.name, "occupation", nw, present = true)
        }
      }
    }
  }

  /** Read-your-write: after `curate` returned, a KGQ for the curated fact
    * must (or must not) find the entity.
    */
  def readYourWrite(s: Store, c: Curation): Option[String] = {
    val hits = s.engine.query(
      s"""FIND person WHERE name = "${c.name}" AND ${c.pred} = "${c.value}" RETURN id LIMIT 100""")
      .map(_.id)
    if (hits.contains(c.action.subject) == c.present) None
    else Some(s"${c.action} not visible to the next read")
  }
}
