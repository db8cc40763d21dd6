package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** Candidate table retrieval by exact set overlap (paper Algorithms 3–4).
  *
  * All heavy set arithmetic is two Spark jobs against the
  * `(table, column, value)` [[LakeIndex]]:
  *   1. index ⋈ unpivot(S) on value → per (lake column, source column)
  *      overlap counts;
  *   2. restricted index self-join → pairwise overlap counts between the
  *      lake columns mapped to the same source column (used by Diversify
  *      and by subsumed-candidate removal).
  * The orchestration (greedy column mapping, Diversify's ranking, the
  * top-k cut) runs on the driver over those small aggregate results.
  */
object SetSimilarity {

  /** A candidate lake table with its implicit schema matching.
    *
    * @param mapping  lake column → source column (injective both ways)
    * @param score    average diversified overlap score across mapped
    *                 source columns (Algorithm 3, line 9)
    */
  final case class Candidate(table: String, mapping: Map[String, String], score: Double)

  final case class Config(tau: Double = 0.2, topK: Int = 10)

  /** Overlap of every (lake table, lake column, source column) triple:
    * |C ∩ c| and the containment |C ∩ c| / |c|.
    */
  private[discovery] def sourceOverlaps(
      index: DataFrame, source: SourceTable): Seq[(String, String, String, Long)] = {
    val srcIdx = LakeIndex.unpivot(source.df)
      .withColumnRenamed("column", "scol")
    index.join(srcIdx, "value")
      .groupBy("table", "column", "scol")
      .agg(count("*").as("m"))
      .collect().toIndexedSeq
      .map(r => (r.getString(0), r.getString(1), r.getString(2), r.getLong(3)))
  }

  /** Pairwise overlap counts between the given lake columns, computed via
    * a restricted index self-join. Returns ((t1,c1),(t2,c2)) → |∩|.
    */
  private[discovery] def pairwiseOverlaps(
      index: DataFrame,
      cols: Set[(String, String)],
      spark: SparkSession): Map[((String, String), (String, String)), Long] = {
    if (cols.isEmpty) return Map.empty
    import spark.implicits._
    val keyDf = cols.toSeq.toDF("t", "c")
    val restricted = index
      .join(keyDf, index("table") === keyDf("t") && index("column") === keyDf("c"), "left_semi")
    val a = restricted.select(col("table").as("t1"), col("column").as("c1"), col("value"))
    val b = restricted.select(col("table").as("t2"), col("column").as("c2"), col("value"))
    a.join(b, "value")
      .where(col("t1") =!= col("t2") || col("c1") =!= col("c2"))
      .groupBy("t1", "c1", "t2", "c2").agg(count("*").as("m"))
      .collect().toIndexedSeq
      .map(r => ((r.getString(0), r.getString(1)), (r.getString(2), r.getString(3))) -> r.getLong(4))
      .toMap
  }

  /** Column distinct-value sizes for the given lake columns. */
  private[discovery] def columnSizes(
      index: DataFrame, cols: Set[(String, String)]): Map[(String, String), Long] = {
    if (cols.isEmpty) return Map.empty
    index.groupBy("table", "column").agg(count("*").as("n"))
      .collect().toIndexedSeq
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2))
      .toMap.filter(kv => cols.contains(kv._1))
  }

  /** Aligned-tuple verification (Algorithm 3, lines 11–14). Column-level
    * set containment alone admits coincidental mappings between columns
    * of the same value domain (dense integer keys, small categorical
    * ranges). The paper's fix: within the candidate's tuples that align
    * with the source, each mapped column must *still* overlap highly.
    *
    * We anchor alignment on the candidate's strongest mapped column
    * (preferring one mapped to a source key). A tuple is aligned when its
    * anchor value occurs in the source's anchor column; a non-anchor
    * mapped column is verified by the fraction of aligned, non-null cells
    * whose (anchor value, cell value) pair also occurs in the source.
    * Mappings below τ are dropped; a candidate left with nothing but its
    * anchor is discarded.
    */
  private val AnchorSep = ""

  /** One verification round.
    *
    * The anchor is the set of mapped pairs targeting source *key* columns
    * (a joint, multi-column anchor when the key is composite — aligning
    * on a single weak key column such as a 5-value suppkey would align
    * almost every tuple and falsely fail the other columns); when no key
    * is mapped, the single pair whose source column has the most distinct
    * values (the strongest evidence).
    *
    * A non-anchor column *passes* at accuracy ≥ τ, but the candidate is
    * only accepted if at least one column's accuracy also beats chance
    * for its cardinality (≥ 2.5/d for d distinct source values): a 2–3
    * value column (order status…) matches a garbage anchor at chance
    * level ~1/d ≥ τ, so it can ride along but never *confirm* an anchor.
    *
    * Returns (surviving mapping incl. anchor — empty when unconfirmed;
    * the anchor pairs, to be banned by the caller on failure).
    */
  private def verifyOnce(
      repo: TableRepo,
      cand: Candidate,
      source: SourceTable,
      srcRows: Seq[Map[String, String]],
      cfg: Config): (Map[String, String], Seq[(String, String)]) = {
    val inv = cand.mapping // lakeCol -> srcCol
    val srcDistinct: Map[String, Int] = source.df.columns.toIndexedSeq.map { sc =>
      sc -> srcRows.flatMap(_.get(sc)).filter(_ != null).distinct.size
    }.toMap

    val keyPairs = inv.toSeq.filter { case (_, sc) => source.keys.contains(sc) }
      .sortBy(_._2)
    val anchorPairs: Seq[(String, String)] =
      if (keyPairs.nonEmpty) keyPairs
      else Seq(inv.toSeq.maxBy { case (_, sc) => (srcDistinct.getOrElse(sc, 0), sc) })
    val anchorSrcCols = anchorPairs.map(_._2)
    val anchorLakeCols = anchorPairs.map(_._1)

    def anchorOf(r: Map[String, String]): String = {
      val parts = anchorSrcCols.map(sc => r.getOrElse(sc, null))
      if (parts.contains(null)) null else parts.mkString(AnchorSep)
    }
    val anchorVals: Set[String] = srcRows.map(anchorOf).filter(_ != null).toSet
    val pairSets: Map[String, Set[(String, String)]] = inv.values.toSeq
      .filterNot(anchorSrcCols.contains).map { sc =>
        sc -> srcRows.flatMap { r =>
          val a = anchorOf(r); val v = r.getOrElse(sc, null)
          if (a != null && v != null) Some((a, v)) else None
        }.toSet
      }.toMap

    val checkCols = inv.toSeq.filterNot { case (c, _) => anchorLakeCols.contains(c) }
    if (checkCols.isEmpty) return (Map.empty, anchorPairs)
    val df = repo.read(cand.table).df
      .select((anchorLakeCols ++ checkCols.map(_._1)).map(col): _*)
    import org.apache.spark.sql.functions.udf
    // Candidate-side anchor string: null when any part is null.
    val anchorExpr = when(anchorLakeCols.map(col(_).isNotNull).reduce(_ && _),
      concat_ws(AnchorSep, anchorLakeCols.map(col): _*)).otherwise(lit(null))
    val anchorHit = udf((a: String) => a != null && anchorVals.contains(a))
    val aggs = checkCols.flatMap { case (c, sc) =>
      val pairs = pairSets(sc)
      val hit = udf((a: String, v: String) =>
        a != null && v != null && pairs.contains((a, v)))
      Seq(
        sum((anchorHit(anchorExpr) && col(c).isNotNull).cast("long")).as(s"n_$c"),
        sum(hit(anchorExpr, col(c)).cast("long")).as(s"m_$c"))
    }
    val row = df.agg(aggs.head, aggs.tail: _*).collect()(0)

    def acc(i: Int): Option[Double] = {
      val n = row.getLong(2 * i)
      if (n == 0) None else Some(row.getLong(2 * i + 1).toDouble / n)
    }
    val passing = checkCols.zipWithIndex.filter { case (_, i) =>
      acc(i).forall(_ >= cfg.tau)
    }
    val confirmed = checkCols.zipWithIndex.exists { case ((_, sc), i) =>
      val d = math.max(1, srcDistinct.getOrElse(sc, 1))
      acc(i).exists(_ >= math.max(cfg.tau, 2.5 / d))
    }
    val surviving =
      if (!confirmed) Map.empty[String, String]
      else (passing.map(_._1) ++ anchorPairs).toMap
    (surviving, anchorPairs)
  }

  /** Verify a candidate, repairing crossed column assignments: failed
    * (lakeCol → srcCol) pairs are banned and the greedy mapping re-run, up
    * to three rounds. Returns None when no multi-column mapping survives.
    */
  private def verifyCandidate(
      repo: TableRepo,
      table: String,
      triples: Seq[(String, String, Double, Long)], // (lakeCol, srcCol, containment, m) desc
      source: SourceTable,
      srcRows: Seq[Map[String, String]],
      cfg: Config): Option[Candidate] = {
    var banned = Set.empty[(String, String)]
    for (_ <- 0 until 5) {
      val mapping = greedyMapping(triples, banned, cfg.tau)
      if (mapping.size < 2) return None
      val cand = Candidate(table, mapping.map { case (c, (sc, _)) => c -> sc }, 0.0)
      val (surviving, anchorPairs) = verifyOnce(repo, cand, source, srcRows, cfg)
      // Anchor confirmed by at least one above-chance column → accept
      // (below-τ columns are simply dropped, as in the paper). Anchor
      // unconfirmed → crossed assignment: ban the anchor pairs and
      // re-map; the other columns may have failed merely because the
      // bogus anchor aligned garbage tuples.
      if (surviving.size >= 2) return Some(cand.copy(mapping = surviving))
      banned ++= anchorPairs
    }
    None
  }

  /** Greedy injective column assignment: lakeCol→srcCol by descending
    * containment, each side used at most once, skipping `banned` pairs.
    */
  private def greedyMapping(
      triples: Seq[(String, String, Double, Long)],
      banned: Set[(String, String)],
      tau: Double): Map[String, (String, Double)] = {
    val usedLake = scala.collection.mutable.Set[String]()
    val usedSrc = scala.collection.mutable.Set[String]()
    val chosen = scala.collection.mutable.Map[String, (String, Double)]()
    triples.foreach { case (c, sc, ov, _) =>
      if (ov >= tau && !banned.contains((c, sc)) &&
          !usedLake.contains(c) && !usedSrc.contains(sc)) {
        usedLake += c; usedSrc += sc; chosen(c) = (sc, ov)
      }
    }
    chosen.toMap
  }

  /** Algorithm 3 (with Algorithm 4's diversification): find, rank,
    * diversify, verify, and prune candidate tables.
    */
  def findCandidates(
      repo: TableRepo,
      index: DataFrame,
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Seq[Candidate] = {

    val srcSizes = LakeIndex.sourceColumnSizes(source)
    val overlaps = sourceOverlaps(index, source)

    // Per-table (lakeCol, srcCol, containment, |intersection|) triples,
    // ordered by containment, intersection size, then key-preference (the
    // absolute-evidence and key tie-breaks matter when several source
    // columns share a value domain — dense integer keys especially).
    val tableTriples: Map[String, Seq[(String, String, Double, Long)]] =
      overlaps.groupBy(_._1).view.mapValues { ts =>
        ts.map { case (_, c, sc, m) =>
          (c, sc, m.toDouble / math.max(1L, srcSizes.getOrElse(sc, 1L)), m)
        }.sortBy { case (c, sc, ov, m) =>
          (-ov, -m, if (source.keys.contains(sc)) 0 else 1, sc, c)
        }
      }.toMap

    val mappings: Map[String, Map[String, (String, Double)]] = tableTriples
      .map { case (t, ts) => t -> greedyMapping(ts, Set.empty, cfg.tau) }
      .filter(_._2.nonEmpty)

    if (mappings.isEmpty) return Seq.empty

    val mappedCols: Set[(String, String)] =
      mappings.toSeq.flatMap { case (t, m) => m.keys.toSeq.map(t -> _) }.toSet
    val pairOv = pairwiseOverlaps(index, mappedCols, spark)
    val colSz = columnSizes(index, mappedCols)

    // --- Algorithm 4 per source column: rank by overlap, then rescore
    // each candidate against its predecessor's mapped column.
    val perSrcCol: Map[String, Seq[(String, Double)]] = source.df.columns.toIndexedSeq.flatMap { sc =>
      val cands = mappings.toSeq.flatMap { case (t, m) =>
        m.collectFirst { case (c, (`sc`, ov)) => (t, c, ov) }
      }.sortBy(-_._3)
      if (cands.isEmpty) None
      else {
        val diversified = cands.zipWithIndex.map { case ((t, c, ov), i) =>
          if (i == 0) (t, ov)
          else {
            val (pt, pc, _) = cands(i - 1)
            val inter = pairOv.getOrElse(((t, c), (pt, pc)), 0L).toDouble
            val prevColOverlap = inter / math.max(1L, colSz.getOrElse((t, c), 1L))
            (t, ov - prevColOverlap)
          }
        }
        Some(sc -> diversified.sortBy(-_._2))
      }
    }.toMap

    // --- Algorithm 3, line 9: average diversified score per table.
    val tableScores: Map[String, Double] = perSrcCol.values.flatten
      .groupBy(_._1).map { case (t, xs) => t -> xs.map(_._2).sum / xs.size }

    val ranked = tableScores.toSeq.sortBy { case (t, s) => (-s, t) }.map(_._1)

    // --- Aligned-tuple verification (Algorithm 3, lines 11–14): walk the
    // ranked list, verifying (and repairing) each candidate's mapping,
    // until enough candidates survive. Junk candidates whose high set
    // overlap is coincidental die here.
    val srcRows: Seq[Map[String, String]] = source.df.collect().toIndexedSeq.map { r =>
      source.df.columns.toIndexedSeq.zipWithIndex.map { case (c, i) =>
        c -> (if (r.isNullAt(i)) null else r.get(i).toString)
      }.toMap
    }
    val verified = scala.collection.mutable.ArrayBuffer[Candidate]()
    val wanted = cfg.topK + 4 // headroom for the duplicate removal below
    val maxAttempts = cfg.topK * 8
    val it = ranked.iterator.zipWithIndex
    while (it.hasNext && verified.size < wanted) {
      val (t, i) = it.next()
      if (i < maxAttempts) {
        verifyCandidate(repo, t, tableTriples(t), source, srcRows, cfg)
          .foreach(c => verified += c.copy(score = tableScores(t)))
      }
    }

    // --- Duplicate-candidate removal (Algorithm 3, line 15). Data lakes
    // hold many copies of the same table; we drop candidates whose
    // renamed, mapped content is row-identical to a better-ranked one
    // (order-independent row-hash signature, one Spark job per survivor).
    // Value-set containment — the paper's phrasing — cannot distinguish
    // complementary nullified versions from duplicates, so we compare
    // row-level content instead (see DESIGN.md).
    val seen = scala.collection.mutable.Map[(Set[String], Long, String), String]()
    val deduped = verified.filter { c =>
      val df = renamed(repo, c)
      val cols = df.columns.sorted.toIndexedSeq
      val rowHash = xxhash64(cols.map(cn =>
        concat(lit(cn + "="), coalesce(col(cn), lit("␀")))): _*)
      // Sum as decimal: a long sum of 64-bit hashes overflows under ANSI.
      val agg = df.select(rowHash.cast("decimal(38,0)").as("h")).agg(
        count("*").as("n"), coalesce(sum(col("h")), lit(0).cast("decimal(38,0)")).as("s"))
        .collect()(0)
      val sig = (cols.toSet, agg.getLong(0), agg.getDecimal(1).toString)
      if (seen.contains(sig)) false else { seen(sig) = c.table; true }
    }
    deduped.take(cfg.topK).toSeq
  }

  /** Project a candidate onto its mapped columns, renamed to the source's
    * column names (the paper's implicit schema matching).
    */
  def renamed(repo: TableRepo, cand: Candidate): DataFrame = {
    val df = repo.read(cand.table).df
    df.select(cand.mapping.toSeq.sortBy(_._2).map { case (c, sc) => col(c).as(sc) }: _*)
  }
}
