package sagabench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._

/** Spans and samples recorded by the benchmark around its calls into the
  * program's layers. Kept in memory and summarised when the run ends.
  * A disabled tracer only runs the code it wraps.
  */
final class Tracer(val on: Boolean) {
  /** A span, with wall-clock milliseconds to line it up with Spark's events. */
  final case class Span(name: String, startMs: Long, endMs: Long, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  private val spans = new ConcurrentLinkedQueue[Span]()
  private val samples = new ConcurrentHashMap[String, ConcurrentLinkedQueue[Double]]()

  def span[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val (m0, t0) = (System.currentTimeMillis(), System.nanoTime())
      try f finally spans.add(Span(name, m0, System.currentTimeMillis(), t0, System.nanoTime()))
    }

  /** Time `f` and record its duration in `unitNs` units as a sample. */
  def timed[A](name: String, unitNs: Double)(f: => A): A =
    if (!on) f
    else {
      val t0 = System.nanoTime()
      try f finally sample(name, (System.nanoTime() - t0) / unitNs)
    }

  def sample(name: String, v: Double): Unit =
    if (on) samples.computeIfAbsent(name, _ => new ConcurrentLinkedQueue[Double]()).add(v)

  def spansNamed(name: String): Seq[Span] = spans.asScala.filter(_.name == name).toSeq

  def samplesOf(name: String): Seq[Double] =
    Option(samples.get(name)).map(_.asScala.toSeq).getOrElse(Seq.empty)
}

object Tracer {
  val Ms = 1e6
  val Us = 1e3
}
