package repro.discovery

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Operators, Similarity}
import repro.lake.SourceTable

/** Matrix Traversal (paper §V-A2/V-A3, Algorithm 1).
  *
  * Each candidate table is represented as a three-valued alignment matrix
  * against the source: per aligned tuple and non-key column the code is
  *   -  1  if the candidate shares the source's value (null-safe),
  *   -  0  if the source is non-null and the candidate is null,
  *   - −1  otherwise (contradicting non-null, or non-null where the
  *          source is null) — Eq. (4).
  *
  * Matrix initialization is one distributed job: all candidates are
  * padded to the source schema, tagged, outer-unioned, joined with the
  * source on the key, coded with `when` expressions, capped per
  * (table, key) by a window, and collected (a matrix is at most
  * |S| × |non-key cols| × cap — tiny). The greedy traversal itself runs
  * on the driver, exactly as Algorithm 1: start from the best single
  * matrix and keep adding the table whose Combine() raises the simulated
  * EIS, stopping at convergence.
  *
  * Combine() keeps two aligned tuples separate when they carry a 1 and a
  * −1 at the same position (outer union keeps contradicting tuples
  * apart); otherwise it merges element-wise with "non-zero wins over 0"
  * — the table semantics the matrix simulates (a κ-filled null takes the
  * filler's correctness), see DESIGN.md §3.
  */
object MatrixTraversal {

  type CodeRow = Vector[Int]

  /** Alignment matrix: source-key string → aligned code rows. */
  final case class Matrix(rows: Map[String, Seq[CodeRow]])

  /** Aligned rows kept per (table, key) at init, and per key after Combine(). */
  private val RowsPerKeyCap = 20
  private val RowsPerKeyCombinedCap = 40

  private val KeySep = ""

  /** Initialize every candidate's matrix in one distributed pass. */
  def initMatrices(
      tables: Seq[Expand.Expanded],
      source: SourceTable): Map[String, Matrix] = {
    if (tables.isEmpty) return Map.empty
    val nk = source.nonKeyColumns
    val tagged = tables.map { t =>
      Operators.padToSourceSchema(t.df, source).withColumn("__tbl", lit(t.name))
    }
    val all = Operators.outerUnionAll(tagged)
    val rA = all.select(
      (all.columns.toIndexedSeq.filterNot(_ == "__tbl").map(c => col(c).as(s"r_$c")) :+
        col("__tbl")): _*)
    val joinCond = source.keys.map(k => col(k) === col(s"r_$k")).reduce(_ && _)
    val joined = source.df.join(rA, joinCond, "inner")

    // Eq. (4), as Similarity.code; a property test pins the two together.
    val codes = nk.map { c =>
      when(col(c) <=> col(s"r_$c"), 1)
        .when(col(c).isNotNull && col(s"r_$c").isNull, 0)
        .otherwise(-1).as(s"code_$c")
    }
    val keyStr = concat_ws(KeySep, source.keys.map(col): _*).as("__key")
    val scoreCols = nk.map(c => when(col(s"code_$c") === 1, 1).otherwise(0))
    val coded = joined.select((Seq(col("__tbl"), keyStr) ++ codes): _*)
      .withColumn("__alpha",
        if (nk.isEmpty) lit(0) else scoreCols.reduce(_ + _))
    val capped = coded
      .withColumn("__rn", row_number().over(
        Window.partitionBy("__tbl", "__key").orderBy(col("__alpha").desc)))
      .where(col("__rn") <= RowsPerKeyCap)

    val collected = capped.collect()
    val byTable = collected.groupBy(_.getString(0))
    tables.map { t =>
      val rows = byTable.getOrElse(t.name, Array.empty).toIndexedSeq
      val m = rows.groupBy(_.getString(1)).map { case (k, rs) =>
        k -> rs.map(r => nk.indices.map(i => r.getInt(2 + i)).toVector).distinct
      }
      t.name -> Matrix(m)
    }.toMap
  }

  private def conflict(a: CodeRow, b: CodeRow): Boolean =
    a.indices.exists(i => (a(i) == 1 && b(i) == -1) || (a(i) == -1 && b(i) == 1))

  private def mergeCodes(a: CodeRow, b: CodeRow): CodeRow =
    a.indices.map(i => if (a(i) != 0) a(i) else b(i)).toVector

  /** Combine the aligned rows of one key: merge compatible pairs to a
    * fixpoint, keep {1,−1} conflicts separate.
    */
  private[discovery] def combineRows(
      l1: Seq[CodeRow], l2: Seq[CodeRow], cap: Int): Seq[CodeRow] =
    Operators.pairwiseFixpoint(l1 ++ l2) { (a, b) =>
      if (conflict(a, b)) None else Some(mergeCodes(a, b))
    }.sortBy(r => -Similarity.score(r)).take(cap)

  def combine(a: Matrix, b: Matrix): Matrix = {
    val keys = a.rows.keySet ++ b.rows.keySet
    Matrix(keys.iterator.map { k =>
      (a.rows.get(k), b.rows.get(k)) match {
        case (Some(x), Some(y)) => k -> combineRows(x, y, RowsPerKeyCombinedCap)
        case (Some(x), None)    => k -> x
        case (None, Some(y))    => k -> y
        case _                  => k -> Seq.empty
      }
    }.toMap)
  }

  /** Simulated EIS of a matrix (evaluateSimilarity of Algorithm 1):
    * per source tuple the best aligned row's (α−δ); missing keys add 0.
    */
  def evaluate(m: Matrix, nSourceRows: Long, nNonKey: Int): Double =
    Similarity.eis(Similarity.termSum(m.rows.values, nNonKey), nNonKey, nSourceRows)

  /** Algorithm 1: greedy matrix traversal → originating table names (in
    * pick order). Strict improvement required to continue.
    */
  def traverse(
      matrices: Map[String, Matrix],
      nSourceRows: Long,
      nNonKey: Int): Seq[String] = {
    if (matrices.isEmpty) return Seq.empty
    val eps = 1e-12
    val start = matrices.maxBy { case (n, m) => (evaluate(m, nSourceRows, nNonKey), n) }
    var orig = Vector(start._1)
    var current = start._2
    var best = evaluate(current, nSourceRows, nNonKey)
    var improved = true
    while (improved && orig.size < matrices.size) {
      improved = false
      val candidates = matrices.view.filterKeys(k => !orig.contains(k)).toMap
      if (candidates.nonEmpty) {
        val scored = candidates.map { case (name, m) =>
          val c = combine(current, m)
          (name, c, evaluate(c, nSourceRows, nNonKey))
        }
        val (bn, bm, bs) = scored.maxBy { case (n, _, s) => (s, n) }
        if (bs > best + eps) {
          orig :+= bn; current = bm; best = bs; improved = true
        }
      }
    }
    orig
  }
}
