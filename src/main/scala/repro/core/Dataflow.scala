package repro.core

import org.apache.spark.sql.DataFrame

/** Dataflow utilities shared by the construction pipelines. */
object Dataflow {

  /** Materialize a DataFrame and cut BOTH its lineage and its Catalyst
    * statistics history.
    *
    * When to pin: only a frame that is carried across batches or loop
    * iterations (`KGState.materialized`, the connected-components labels
    * and edges, PageRank ranks), or one that more than one Spark action
    * reads. A frame read by a single action is left lazy: pinning it
    * costs a job and computes nothing that action would not. Counts and
    * other reports are taken from frames already pinned, never by
    * re-running a lazy dataflow.
    *
    * Why not `localCheckpoint` alone: `Dataset.localCheckpoint` snapshots
    * the *optimized plan's statistics* into the resulting `LogicalRDD`.
    * The iterative construction pipeline composes joins batch over batch,
    * and Catalyst's size-only estimator multiplies child sizes at every
    * join — so the propagated estimates compound exponentially and the
    * driver ends up grinding through BigInteger arithmetic with millions
    * of digits during planning. Rebuilding the frame from the
    * materialized RDD resets the estimate to
    * `spark.sql.defaultSizeInBytes` (configured to a modest value by
    * `repro.jobs.Jobs.session`), keeping every plan's stats bounded.
    */
  def pin(df: DataFrame): DataFrame = {
    val spark = df.sparkSession
    val rdd = df.rdd.localCheckpoint()
    rdd.count()
    spark.createDataFrame(rdd, df.schema)
  }
}
