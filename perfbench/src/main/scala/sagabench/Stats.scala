package sagabench

/** Order statistics and the result line. */
object Stats {

  /** Nearest-rank percentile of already sorted samples. */
  def pct(sorted: IndexedSeq[Double], p: Double): Double =
    if (sorted.isEmpty) Double.NaN
    else sorted(math.min(sorted.size - 1, math.max(0, math.ceil(p / 100.0 * sorted.size).toInt - 1)))

  def percentile(xs: Seq[Double], p: Double): Double = pct(xs.sorted.toIndexedSeq, p)

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** The highest of the usual tail percentiles that has at least ten
    * samples beyond it, with its label; the maximum when there are fewer
    * than twenty samples.
    */
  def tail(xs: Seq[Double]): (String, Double) = {
    val s = xs.sorted.toIndexedSeq
    Seq(99.9, 99.0, 95.0, 90.0, 50.0).find(p => s.size * (1 - p / 100) >= 10) match {
      case Some(p) => (s"p${if (p == p.floor) p.toInt.toString else p.toString}", pct(s, p))
      case None    => ("max", s.lastOption.getOrElse(Double.NaN))
    }
  }

  /** A metric as printed: name, value, unit. */
  final case class Metric(name: String, value: Double, unit: String)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  /** The single-line JSON result the benchmark prints last. */
  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map(m => s"""${str(m.name)}: {"value": ${num(m.value)}, "unit": ${str(m.unit)}}""").mkString(", ") +
      "}}"
}
