package sagabench

import java.util.concurrent.{ConcurrentLinkedQueue, ExecutorService, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport
import scala.jdk.CollectionConverters._

/** Open-loop load: every operation has a due time fixed in advance and is
  * handed to its executor at that time whether or not earlier operations
  * finished, so a stall delays every operation behind it. Latency is
  * measured from the due time. An operation that throws, or has not
  * finished when the run's deadline passes, is failed.
  */
object LoadGen {

  private val SpinNs = 500000L

  /** One scheduled operation: due time in ns after the start, the lane
    * (executor) it runs on, a tag used to group its latencies, and an
    * untimed step run after it completed (a read-your-write probe).
    */
  final case class Op(dueNs: Long, lane: Int, tag: String, run: () => Unit,
                      after: () => Unit = () => ())

  final case class Sample(tag: String, dueNs: Long, startNs: Long, endNs: Long) {
    def latencyMs: Double = (endNs - dueNs) / 1e6
    def waitMs: Double = (startNs - dueNs) / 1e6
    def serviceMs: Double = (endNs - startNs) / 1e6
  }

  final case class Outcome(attempted: Long, completed: Long, failed: Long, timedOut: Long,
                           samples: Seq[Sample], lateMs: Seq[Double], errors: Seq[String]) {
    def latencies(tag: String => Boolean): Seq[Double] = samples.filter(s => tag(s.tag)).map(_.latencyMs)
    def service(tag: String => Boolean): Seq[Double] = samples.filter(s => tag(s.tag)).map(_.serviceMs)
  }

  /** Run `ops` (sorted by due time) on `lanes` executors of the given
    * thread counts. Returns when every operation finished or `graceNs`
    * after the last due time passed, whichever is first.
    */
  def run(ops: IndexedSeq[Op], lanes: Seq[Int], graceNs: Long): Outcome = {
    val pools: Seq[ExecutorService] = lanes.map(n => Executors.newFixedThreadPool(n))
    val samples = new ConcurrentLinkedQueue[Sample]()
    val errors = new ConcurrentLinkedQueue[String]()
    val failed = new AtomicLong()
    val late = new Array[Double](ops.size)
    val t0 = System.nanoTime()
    val cutNs = ops.lastOption.map(_.dueNs).getOrElse(0L) + graceNs
    try {
      var i = 0
      while (i < ops.size) {
        val op = ops(i)
        val due = t0 + op.dueNs
        // Sleep until shortly before the due time, then spin: waking a
        // parked thread on a virtual machine can take milliseconds, which
        // would be charged to the operation as lateness.
        var now = System.nanoTime()
        while (due - now > SpinNs) { LockSupport.parkNanos(due - now - SpinNs); now = System.nanoTime() }
        while (now < due) { Thread.onSpinWait(); now = System.nanoTime() }
        late(i) = (now - due) / 1e6
        pools(op.lane).execute { () =>
          val start = System.nanoTime()
          try {
            op.run()
            samples.add(Sample(op.tag, op.dueNs, start - t0, System.nanoTime() - t0))
            op.after()
          } catch {
            case e: Throwable =>
              failed.incrementAndGet()
              if (errors.size < 20) errors.add(s"${op.tag}: $e")
          }
        }
        i += 1
      }
      pools.foreach(_.shutdown())
      pools.foreach(p => p.awaitTermination(math.max(0L, t0 + cutNs - System.nanoTime()), TimeUnit.NANOSECONDS))
    } finally {
      pools.foreach(_.shutdownNow())
      // Operations are CPU-bound and not interruptible; give the workers
      // a bounded time to finish what they started before moving on.
      pools.foreach(_.awaitTermination(30, TimeUnit.SECONDS))
    }
    // Whatever finished after the cut-off counts as failed, not as late.
    val inTime = samples.asScala.toSeq.filter(_.endNs <= cutNs)
    val timedOut = ops.size - inTime.size - failed.get()
    Outcome(ops.size, inTime.size, ops.size - inTime.size, timedOut, inTime, late.toSeq,
      errors.asScala.toSeq)
  }

  /** Due times of `n` operations at `rate` per second, starting at `offsetNs`. */
  def fixedRate(n: Int, rate: Double, offsetNs: Long): IndexedSeq[Long] =
    (0 until n).map(i => offsetNs + (i * 1e9 / rate).toLong)
}
