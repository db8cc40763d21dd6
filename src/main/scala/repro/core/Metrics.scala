package repro.core

import org.apache.spark.sql.DataFrame
import repro.lake.SourceTable

/** Evaluation metrics of §VI-A2 and Appendix E.
  *
  *   - Recall/Precision derived from ALITE's Tuple Difference Ratio:
  *     `Rec = |S∩Ŝ|/|S|`, `Pre = |S∩Ŝ|/|Ŝ|` with set semantics over full
  *     rows on S's schema (null-safe, distinct).
  *   - Instance Divergence = 1 − instance similarity (Eq. 2).
  *   - Conditional KL-divergence (Eqs. 11–12) with ε-smoothing so the
  *     score is finite; erroneous values are penalized harder than nulls
  *     through the (1 − Q(¬x|k)) factor. Reported value is averaged per
  *     non-key column and divided by Q(K) = fraction of source keys found.
  *
  * All scores come from one [[Similarity.Alignment]]: one collect of
  * each side.
  */
object Metrics {

  /** ε for KL smoothing; also the paper's D_KL is unbounded, ours caps at
    * −2·ln(ε) per column term.
    */
  val Eps = 1e-3

  /** @param kl conditional KL; None when the output shares no key with
    *           the source (Q(K) = 0 leaves it undefined).
    */
  final case class Scores(
      recall: Double,
      precision: Double,
      instDiv: Double,
      kl: Option[Double],
      eis: Double,
      outputCells: Long,
      sourceCells: Long) {
    def perfect: Boolean = recall >= 1.0 - 1e-12 && precision >= 1.0 - 1e-12
    def sizeRatio: Double = if (sourceCells == 0) 0 else outputCells.toDouble / sourceCells
  }

  private def recallPrecision(a: Similarity.Alignment): (Double, Double) = {
    val s = a.source.distinct; val r = a.table.distinct.toSet
    val inter = s.count(r.contains).toDouble
    (if (s.isEmpty) 1.0 else inter / s.size, if (r.isEmpty) 0.0 else inter / r.size)
  }

  def recallPrecision(reclaimed: DataFrame, source: SourceTable): (Double, Double) =
    recallPrecision(Similarity.align(reclaimed, source))

  def instanceDivergence(reclaimed: DataFrame, source: SourceTable): Double =
    1.0 - Similarity.instanceSimilarity(reclaimed, source)

  /** Conditional KL from the aligned codes. Per matched source tuple and
    * column: Q(x|k) = share of aligned tuples carrying the source value
    * (code 1), Q(¬x|k) = share carrying a different non-null value (−1).
    */
  private def conditionalKl(a: Similarity.Alignment): Option[Double] = {
    val nk = a.nonKey.size
    val matched = a.aligned.filter(_.nonEmpty)
    if (nk == 0) Some(0.0)
    else if (matched.isEmpty) None
    else {
      def share(rows: Seq[Vector[Int]], j: Int, c: Int) = rows.count(_(j) == c).toDouble / rows.size
      val sumCols = (0 until nk).map { j =>
        // 0.0 − …, not −(…): a perfect column scores 0.0, not −0.0.
        matched.map { rows =>
          0.0 - math.log(math.max(share(rows, j, 1), Eps)) -
            math.log(math.max(1.0 - share(rows, j, -1), Eps))
        }.sum / matched.size
      }.sum
      val qK = matched.size.toDouble / a.source.size
      Some(sumCols / (qK * nk))
    }
  }

  /** Conditional KL-divergence of the reclaimed table w.r.t. the source;
    * NaN when no source key is matched.
    */
  def conditionalKl(reclaimed: DataFrame, source: SourceTable): Double =
    conditionalKl(Similarity.align(reclaimed, source)).getOrElse(Double.NaN)

  /** All scores of §VI-A2 for one (source, reclaimed) pair. */
  def all(reclaimed: DataFrame, source: SourceTable): Scores = {
    val a = Similarity.align(reclaimed, source)
    val (rec, pre) = recallPrecision(a)
    val width = source.df.columns.length.toLong
    Scores(rec, pre, 1.0 - a.instanceSimilarity, conditionalKl(a), a.eis,
      a.table.size * width, a.source.size * width)
  }

  /** Scores for a method that produced no output (timeout / empty). */
  def empty(source: SourceTable): Scores =
    Scores(0.0, 0.0, 1.0, None, 0.0, 0L, source.df.count() * source.df.columns.length)
}
