package sagabench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Spark work attributed to the program function that caused it.
  *
  * `frames` are the `repro.*` frames of the job's call stack, innermost
  * first, as `Class.method` (`Linking.run`, `Construction.KGState.materialized`);
  * `core.Dataflow` frames are kept apart in `viaPin`.
  */
final case class JobRecord(jobId: Int, startMs: Long, endMs: Long, frames: Seq[String],
                           viaPin: Boolean, tasks: Int, failedTasks: Int,
                           execMs: Long, shuffleBytes: Long, stages: Int) {
  def wallMs: Long = endMs - startMs
  def innermost: String = frames.headOption.getOrElse("<none>")
  def within(fn: String): Boolean = frames.contains(fn)
}

object JobRecord {
  private val Frame = """^\s*(?:at\s+)?(repro\.[\w.$]+)\.([\w$]+)\(.*$""".r

  /** `repro.construct.Fusion$.$anonfun$truthDiscovery$2` → `Fusion.truthDiscovery`. */
  def frameName(cls: String, method: String): String = {
    val c = cls.stripPrefix("repro.").split('.').last.split('$').filter(_.nonEmpty).mkString(".")
    val m = method.split('$').filter(p => p.nonEmpty && p != "anonfun" && !p.forall(_.isDigit))
      .headOption.getOrElse(method)
    s"$c.$m"
  }

  /** Program frames of a long-form call site, innermost first, without
    * repeats of the same function.
    */
  def programFrames(callSite: String): (Seq[String], Boolean) = {
    val all = callSite.linesIterator.collect { case Frame(cls, m) => (cls, frameName(cls, m)) }.toSeq
    val viaPin = all.headOption.exists(_._1.startsWith("repro.core.Dataflow"))
    val frames = all.filterNot(_._1.startsWith("repro.core.Dataflow")).map(_._2)
    (frames.foldLeft(Vector.empty[String])((acc, f) => if (acc.lastOption.contains(f)) acc else acc :+ f), viaPin)
  }
}

/** A SparkListener owned by the benchmark: counts jobs, stages, tasks,
  * executor time, shuffle bytes and failed tasks, and attributes every
  * job to its call site (`StageInfo.details` is the job's long-form call
  * site). Needs no change to the program.
  */
final class WorkCounter extends SparkListener {
  private final class Open(val start: Long, val frames: Seq[String], val viaPin: Boolean,
                           val stageIds: Seq[Int]) {
    var tasks = 0; var failed = 0; var execMs = 0L; var shuffle = 0L
  }
  private val open = mutable.Map.empty[Int, Open]
  private val stageToJob = mutable.Map.empty[Int, Int]
  private val done = new ConcurrentLinkedQueue[JobRecord]()

  /** SQL execution id → long-form call site of the action that started it.
    * Spark runs a Dataset action's jobs on a pool thread, so only the SQL
    * execution start event still carries the caller's stack.
    */
  private val sqlSites = mutable.Map.empty[Long, String]

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized { sqlSites(s.executionId) = s.details }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val site = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => sqlSites.get(id.toLong))
      .orElse(props.flatMap(p => Option(p.getProperty("callSite.long"))))
      .getOrElse(e.stageInfos.sortBy(-_.stageId).headOption.map(_.details).getOrElse(""))
    val (frames, viaPin) = JobRecord.programFrames(site)
    open(e.jobId) = new Open(e.time, frames, viaPin, e.stageIds)
    e.stageIds.foreach(s => stageToJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageToJob.get(e.stageId).flatMap(open.get).foreach { j =>
      j.tasks += 1
      if (!e.reason.isInstanceOf[org.apache.spark.Success.type]) j.failed += 1
      Option(e.taskMetrics).foreach { m =>
        j.execMs += m.executorRunTime
        j.shuffle += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { j =>
      j.stageIds.foreach(stageToJob.remove)
      done.add(JobRecord(e.jobId, j.start, e.time, j.frames, j.viaPin, j.tasks, j.failed,
        j.execMs, j.shuffle, j.stageIds.size))
    }
  }

  /** Jobs that ended so far, in job-id order. */
  def jobs: Seq[JobRecord] = done.asScala.toSeq.sortBy(_.jobId)
}

object WorkCounter {
  /** Register a counter and return it; events are delivered asynchronously,
    * so read it only after `drain`.
    */
  def install(sc: SparkContext): WorkCounter = {
    val c = new WorkCounter
    sc.addSparkListener(c)
    c
  }

  /** Wait until the listener bus delivered every event posted so far.
    * The bus is internal to Spark; `waitUntilEmpty` is reached by
    * reflection so the benchmark needs no code in Spark's packages.
    */
  def drain(sc: SparkContext): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty", classOf[Long]).invoke(bus, java.lang.Long.valueOf(60000L))
  }
}
