package repro.core

import org.apache.spark.sql.DataFrame
import repro.lake.SourceTable

/** Error-aware instance similarity (paper §IV-A, Definitions 4–5), and
  * the in-memory key-alignment kernel every scorer shares.
  *
  * Tuples of a candidate/reclaimed table are aligned to source tuples by
  * equality on the source key. Each aligned pair (s, t) is coded per
  * non-key attribute with Eq. (4)'s {1, 0, −1} (see [[code]]); over the n
  * non-key attributes:
  *   - α(s,t) = #1 codes (null-safe: both-null counts as agreement, per
  *     the paper's Example 6),
  *   - δ(s,t) = #−1 codes (t is non-null and differs from s).
  *
  * Error-aware tuple similarity E = (α − δ)/n; EIS over the instance is
  * `0.5·Σ_s max_t(1+E(s,t)) / |S|`, where a source tuple with no aligned
  * tuple contributes 0. We keep the sum as the exact integer
  * `Σ_s (n + max_t(α−δ))` ([[term]]), so EIS = that sum / (2n·|S|) and
  * comparisons of EIS are exact. Instance similarity (Alexe et al.) uses
  * α/n, counting only shared *non-null* values.
  *
  * The working set is small (≤ |S| keys × a few aligned rows), so the
  * DataFrame-in entry points collect once and score on the driver.
  */
object Similarity {

  /** Eq. (4): 1 if the table shares the source's value (a shared null
    * counts), 0 if the source has a value the table lacks, −1 otherwise
    * (a contradicting value, or a value where the source is null).
    */
  def code(s: String, t: String): Int =
    if (s == t) 1 else if (t == null) 0 else -1

  /** α − δ of one aligned code row. */
  def score(codes: Seq[Int]): Int = codes.count(_ == 1) - codes.count(_ == -1)

  /** One source tuple's EIS term times 2n: n + the best aligned row's
    * α − δ, or 0 when no row aligns.
    */
  def term(aligned: Iterable[Seq[Int]], n: Int): Int =
    if (aligned.isEmpty) 0 else n + aligned.iterator.map(score).max

  /** Σ of [[term]] over the aligned code rows of each source tuple. */
  def termSum(aligned: Iterable[Iterable[Seq[Int]]], nNonKey: Int): Long =
    aligned.iterator.map(term(_, math.max(1, nNonKey)).toLong).sum

  /** EIS of Definition 5 / Eq. (3): [[termSum]] / (2n·|S|); 1 for an
    * empty source.
    */
  def eis(termSum: Long, nNonKey: Int, nSource: Long): Double =
    if (nSource == 0) 1.0 else termSum.toDouble / (2.0 * math.max(1, nNonKey) * nSource)

  /** Key alignment of a table to its source (tuples of both in the
    * source's column order): each source tuple with the Eq. (4) code rows
    * (over `nonKey`) of the table tuples sharing its key. A source tuple
    * with a null key part aligns to nothing.
    */
  final case class Alignment(
      source: IndexedSeq[Seq[String]],
      table: Seq[Seq[String]],
      nonKey: IndexedSeq[Int],
      aligned: IndexedSeq[Seq[Vector[Int]]]) {

    def termSum: Long = Similarity.termSum(aligned, nonKey.size)

    def eis: Double = Similarity.eis(termSum, nonKey.size, source.size)

    /** Instance similarity of Definition 5 / Eq. (2), in [0, 1]. */
    def instanceSimilarity: Double =
      if (source.isEmpty) 1.0
      else {
        val alphas = source.indices.map { r =>
          val nonNull = nonKey.map(i => source(r)(i) != null)
          aligned(r).map(c => c.indices.count(j => c(j) == 1 && nonNull(j))).maxOption.getOrElse(0)
        }
        alphas.sum.toDouble / math.max(1, nonKey.size) / source.size
      }
  }

  /** Align `table` to `source`; both hold tuples in the order of `cols`. */
  def align(cols: Seq[String], keys: Seq[String],
            source: Seq[Seq[String]], table: Seq[Seq[String]]): Alignment = {
    val keyIdx = keys.map(cols.indexOf)
    val nonKey = cols.indices.filterNot(keyIdx.contains)
    val byKey = table.groupBy(t => keyIdx.map(t))
    val aligned = source.toIndexedSeq.map { s =>
      val k = keyIdx.map(s)
      if (k.contains(null)) Seq.empty
      else byKey.getOrElse(k, Seq.empty).map(t => nonKey.map(i => code(s(i), t(i))).toVector)
    }
    Alignment(source.toIndexedSeq, table, nonKey, aligned)
  }

  /** Collect `reclaimed` (padded to the source schema) and the source,
    * and align them.
    */
  def align(reclaimed: DataFrame, source: SourceTable): Alignment =
    align(source.df.columns.toIndexedSeq, source.keys,
      Operators.collectRows(source.df),
      Operators.collectRows(Operators.padToSourceSchema(reclaimed, source)))

  /** EIS of Definition 5 / Eq. (3), in [0, 1]. */
  def eis(reclaimed: DataFrame, source: SourceTable): Double = align(reclaimed, source).eis

  /** Instance similarity of Definition 5 / Eq. (2), in [0, 1]. */
  def instanceSimilarity(reclaimed: DataFrame, source: SourceTable): Double =
    align(reclaimed, source).instanceSimilarity
}
