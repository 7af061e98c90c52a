package repro.construct

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Dataflow
import org.apache.spark.sql.functions._

/** Resolution (§2.3 step 5): from calibrated pair probabilities, build a
  * linkage graph with +1 edges (high-confidence matches) and −1 edges
  * (high-confidence non-matches) and find entity clusters with a parallel
  * correlation clustering algorithm (Pan et al., NIPS'15 family).
  *
  * Implementation: connected components over the +1 graph are computed
  * distributed (iterative min-label propagation in DataFrames); within
  * each component — components are small by construction of blocking —
  * the pivot (KwikCluster) algorithm runs locally, honouring −1 edges:
  * a node is absorbed by a pivot only if it is +adjacent and *not*
  * −adjacent to it.
  */
object CorrelationClustering {

  /** A signed linkage edge; `sign` ∈ {+1, −1}. */
  final case class Edge(a: String, b: String, sign: Int, score: Double)

  /** Distributed connected components over the +edges via min-label
    * propagation. Returns (id, component).
    */
  def connectedComponents(nodes: DataFrame, posEdges: DataFrame,
                          maxIter: Int = 20): DataFrame = {
    val spark = nodes.sparkSession
    // Materialize inputs: iterative plans otherwise accumulate lineage and
    // Catalyst's size estimation (product over join children) degenerates
    // into enormous BigInteger arithmetic on the driver.
    var labels = Dataflow.pin(nodes.select(col("id"), col("id").as("comp")))
    val undirectedPinned = Dataflow.pin(
      posEdges.select(col("a"), col("b"))
        .union(posEdges.select(col("b").as("a"), col("a").as("b")))
        .distinct())
    var changed = 1L
    var it = 0
    while (changed > 0 && it < maxIter) {
      val msgs = undirectedPinned
        .join(labels.withColumnRenamed("id", "b").withColumnRenamed("comp", "ncomp"), Seq("b"))
        .groupBy(col("a").as("id")).agg(min("ncomp").as("mcomp"))
      val next = Dataflow.pin(
        labels.join(msgs, Seq("id"), "left")
          .select(col("id"), least(col("comp"), coalesce(col("mcomp"), col("comp"))).as("comp")))
      changed = next.join(labels.withColumnRenamed("comp", "old"), Seq("id"))
        .filter(col("comp") =!= col("old")).count()
      labels = next
      it += 1
    }
    labels
  }

  /** Local pivot clustering of one component. Deterministic: the
    * permutation is derived from a seed and node ids. Returns
    * node → cluster id (cluster id = pivot node id).
    */
  def clusterLocal(nodes: Seq[String], edges: Seq[Edge], seed: Long): Map[String, String] = {
    val pos = scala.collection.mutable.HashMap[String, Set[String]]().withDefaultValue(Set.empty)
    val neg = scala.collection.mutable.HashMap[String, Set[String]]().withDefaultValue(Set.empty)
    edges.foreach { e =>
      if (e.sign > 0) { pos(e.a) = pos(e.a) + e.b; pos(e.b) = pos(e.b) + e.a }
      else            { neg(e.a) = neg(e.a) + e.b; neg(e.b) = neg(e.b) + e.a }
    }
    // Deterministic random permutation: order by hash(seed, id).
    val order = nodes.sortBy(n => (scala.util.hashing.MurmurHash3.stringHash(n, seed.toInt), n))
    val assignment = scala.collection.mutable.HashMap[String, String]()
    for (pivot <- order if !assignment.contains(pivot)) {
      assignment(pivot) = pivot
      for (nb <- pos(pivot) if !assignment.contains(nb) && !neg(pivot).contains(nb))
        assignment(nb) = pivot
    }
    assignment.toMap
  }

  /** Full distributed resolution: nodes (id) + signed edges → (id,
    * cluster). Edges are grouped by +component; each group is clustered
    * locally in parallel across the cluster (the per-block parallelism of
    * §2.3).
    */
  def cluster(nodes: DataFrame, edges0: DataFrame, seed: Long = 42): DataFrame = {
    val spark = nodes.sparkSession
    import spark.implicits._
    // Pin down the (small) edge relation once; everything below reuses it.
    val edges = Dataflow.pin(edges0)
    val pos = edges.filter(col("sign") > 0).select("a", "b")
    val comps = connectedComponents(nodes, pos)

    val eWithComp = edges
      .join(comps.withColumnRenamed("id", "a").withColumnRenamed("comp", "compA"), Seq("a"))
      .join(comps.withColumnRenamed("id", "b").withColumnRenamed("comp", "compB"), Seq("b"))
      // −edges across components carry no information for pivoting inside one
      .filter(col("compA") === col("compB"))
      .select(col("compA").as("comp"), col("a"), col("b"), col("sign"), col("score"))

    val nodesByComp = comps.select(col("comp"), col("id"))
    val grouped = nodesByComp.as[(String, String)].groupByKey(_._1)
    val edgesByComp = eWithComp.as[(String, String, String, Int, Double)]
      .groupByKey(_._1)

    val assignments = grouped.cogroup(edgesByComp) { (_, nodeIt, edgeIt) =>
      val ns = nodeIt.map(_._2).toSeq
      val es = edgeIt.map { case (_, a, b, s, sc) => Edge(a, b, s, sc) }.toSeq
      clusterLocal(ns, es, seed).iterator
    }
    assignments.toDF("id", "cluster")
  }

  /** Total disagreement cost of an assignment: +edges cut plus −edges kept
    * inside a cluster. Used by tests to check the algorithm beats trivial
    * assignments.
    */
  def cost(edges: Seq[Edge], assignment: Map[String, String]): Int =
    edges.count { e =>
      val same = assignment.get(e.a) == assignment.get(e.b) && assignment.contains(e.a)
      (e.sign > 0 && !same) || (e.sign < 0 && same)
    }
}
