package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.discovery.{Expand, MatrixTraversal, SetSimilarity}
import repro.lake.{SourceTable, TableRepo}

/** Gen-T end to end (paper Figure 2):
  * Set Similarity (candidate retrieval + implicit schema matching) →
  * Expand (key coverage) → Matrix Traversal (originating-table pruning) →
  * Table Integration (Algorithm 2) → reclaimed source table.
  */
object GenT {

  final case class Result(
      reclaimed: DataFrame,
      candidates: Seq[String],
      originating: Seq[String],
      millis: Long)

  /** Compute Expand's edge weights from candidate column overlaps: two
    * renamed candidates are joinable on a shared source column; the
    * weight approximates how lossless that equi-join is. We estimate with
    * a cheap distinct-overlap probe per shared column over the (already
    * projected, renamed) candidate pair.
    */
  private def expandWeights(
      tables: Seq[(String, DataFrame)]): Map[(String, String), Map[String, Double]] = {
    import org.apache.spark.sql.functions._
    if (tables.size < 2) return Map.empty
    // One distributed job: unpivot every candidate, self-join on
    // (column, value), count per (tableA, tableB, column), then weight =
    // Σ_shared-col |∩| / min(|A.col|, |B.col|).
    val unpivoted = Operators.outerUnionAll(tables.map { case (n, df) =>
      repro.lake.LakeIndex.unpivot(df).select(lit(n).as("table"), col("column"), col("value"))
    }).cache()
    val sizes = unpivoted.groupBy("table", "column").agg(count("*").as("n"))
      .collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    val a = unpivoted.select(col("table").as("t1"), col("column"), col("value"))
    val b = unpivoted.select(col("table").as("t2"), col("column").as("c2"), col("value").as("v2"))
    val inter = a
      .join(b, col("column") === col("c2") && col("value") === col("v2") && col("t1") < col("t2"))
      .groupBy("t1", "t2", "column").agg(count("*").as("m"))
      .collect()
    unpivoted.unpersist()
    inter.toIndexedSeq
      .map { r =>
        val (t1, t2, c, m) = (r.getString(0), r.getString(1), r.getString(2), r.getLong(3))
        val minSz = math.max(1L, math.min(
          sizes.getOrElse((t1, c), 1L), sizes.getOrElse((t2, c), 1L))).toDouble
        (t1, t2) -> (c -> (m.toDouble / minSz))
      }
      .groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2).toMap }
  }

  /** Run Gen-T for one source table over the repository `repo`, whose
    * value index `index` was built with [[repro.lake.LakeIndex]].
    */
  def reclaim(
      repo: TableRepo,
      index: DataFrame,
      source: SourceTable,
      spark: SparkSession): Result = {
    // --- Table Discovery: Set Similarity (Algorithms 3–4).
    val candidates = SetSimilarity.findCandidates(repo, index, source, spark)
    reclaimFromCandidates(repo, candidates, source, spark)
  }

  /** Gen-T from an already-discovered candidate set (lets the harness
    * share one Set Similarity pass across all methods, as the paper does:
    * "given the same set of candidate tables from Set Similarity").
    */
  def reclaimFromCandidates(
      repo: TableRepo,
      candidates: Seq[SetSimilarity.Candidate],
      source: SourceTable,
      spark: SparkSession): Result = {
    val t0 = System.nanoTime()
    val renamed = candidates.map(c => c.table -> SetSimilarity.renamed(repo, c))

    if (renamed.isEmpty) {
      return Result(source.df.limit(0), Seq.empty, Seq.empty,
        (System.nanoTime() - t0) / 1000000)
    }

    // Select early: every downstream table only needs rows aligned to the
    // source keys, so prune candidates to aligned rows where the key is
    // present (a distributed semi-join) before Expand/matrix work. The
    // caches live only for this call: Integration returns driver-held rows.
    val pruned = renamed.map { case (n, df) =>
      n -> Operators.selectSourceKeys(df, source).cache()
    }
    try {
      // --- Expand (Algorithm 5): give every candidate the source key.
      val weights = expandWeights(pruned)
      val expanded = Expand.expandAll(pruned, source, weights)
        .map(e => e.copy(df = Operators.projectSelect(e.df, source)))

      if (expanded.isEmpty) {
        return Result(source.df.limit(0), candidates.map(_.table), Seq.empty,
          (System.nanoTime() - t0) / 1000000)
      }

      // --- Matrix Traversal (Algorithm 1): prune to originating tables.
      val matrices = MatrixTraversal.initMatrices(expanded, source)
      val nSourceRows = source.df.count()
      val picked = MatrixTraversal.traverse(matrices, nSourceRows, source.nonKeyColumns.size)
      val origTables = expanded.filter(e => picked.contains(e.name))

      // --- Table Reclamation (Algorithm 2).
      val reclaimed = Integration.integrate(origTables.map(_.df), source)

      Result(reclaimed, candidates.map(_.table), picked,
        (System.nanoTime() - t0) / 1000000)
    } finally pruned.foreach(_._2.unpersist())
  }
}
