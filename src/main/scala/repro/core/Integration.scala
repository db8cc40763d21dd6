package repro.core

import org.apache.spark.sql.DataFrame
import repro.lake.SourceTable

/** Table Integration (paper Algorithm 2).
  *
  * Preprocess: ProjectSelect (π, σ) → InnerUnion of same-schema tables →
  * LabelSourceNulls → TakeMinimalForm (dedupe, β, κ). Integrate: fold the
  * tables with outer union, applying complementation / subsumption after
  * each step only when they do not lower the EIS against the
  * (null-labeled) source — the paper's guard against over-combining.
  * Finally remove the null labels and pad to the source schema.
  *
  * Every ProjectSelected inner-union group is collected once; the rest
  * runs on the driver over rows in the source's column order (columns a
  * table lacks are null). β and κ act per source-key group, and EIS is a
  * per-key sum, so each conditional step is decided on the exact integer
  * Σ_k(n + best_k) of [[Similarity.term]].
  */
object Integration {

  /** Prefix of labeled-null tokens (LabelSourceNulls / RemoveLabeledNulls). */
  val NullLabelPrefix = "⟂|"

  private def label(key: Seq[String], col: String): String =
    NullLabelPrefix + key.mkString + "|" + col

  /** The source tuple `s` (in `cols` order) with every null non-key value
    * replaced by its deterministic label token — integration-time
    * similarity is evaluated against this copy so labeled nulls in the
    * tables count as matches.
    */
  private[core] def labelSource(s: Seq[String], cols: Seq[String], keyIdx: Seq[Int]): Seq[String] =
    s.indices.map { i =>
      if (s(i) == null && !keyIdx.contains(i)) label(keyIdx.map(s), cols(i)) else s(i)
    }

  /** LabelSourceNulls (Algorithm 2, line 5): in table tuple `t`, wherever
    * a column the table has (`present`) is null in both `t` and its
    * aligned source tuple `s`, replace the null with the label used by
    * [[labelSource]] — so β/κ cannot over-combine away a *correct* null.
    */
  private[core] def labelNulls(t: Seq[String], s: Seq[String], cols: Seq[String],
                               keyIdx: Seq[Int], present: Set[Int]): Seq[String] =
    t.indices.map { i =>
      if (present(i) && !keyIdx.contains(i) && t(i) == null && s(i) == null)
        label(keyIdx.map(s), cols(i))
      else t(i)
    }

  /** RemoveLabeledNulls (Algorithm 2, line 14). */
  private[core] def removeLabeledNulls(t: Seq[String]): Seq[String] =
    t.map(v => if (v != null && v.startsWith(NullLabelPrefix)) null else v)

  /** Algorithm 2 end to end. Input tables must contain the source key. */
  def integrate(tables: Seq[DataFrame], source: SourceTable): DataFrame = {
    val cols = source.df.columns.toIndexedSeq
    val keyIdx = source.keys.map(cols.indexOf)
    val srcRows = Operators.collectRows(source.df)
    val bySourceKey = srcRows.map(s => keyIdx.map(s) -> s).toMap
    val labeled = srcRows.map(labelSource(_, cols, keyIdx))

    // 2n·|S|·EIS against the labeled source.
    def eisSum(rows: Seq[Seq[String]]): Long =
      Similarity.align(cols, source.keys, labeled, rows).termSum

    // Lines 3–6: ProjectSelect, InnerUnion, LabelSourceNulls, minimal form.
    val groups = Operators.innerUnionGroups(tables.map(t => Operators.projectSelect(t, source)))
    val prepared = groups.map { g =>
      require(source.keys.forall(g.columns.contains), s"keys ${source.keys} missing from ${g.columns.toSeq}")
      val present = cols.indices.filter(i => g.columns.contains(cols(i))).toSet
      val rows = Operators.collectRows(Operators.padToSourceSchema(g, source))
        .map(t => labelNulls(t, bySourceKey(keyIdx.map(t)), cols, keyIdx, present))
      Operators.perKey(rows, keyIdx)(Operators.minimalForm)
    }

    // Iterate in descending EIS order (traversal pick order is preserved
    // upstream by Gen-T; standalone callers get a deterministic order).
    val ordered = prepared.sortBy(t => -eisSum(t))

    // Lines 8–13: outer union fold with conditional κ and β. A key group
    // holds the current result's rows, then the new table's: κ depends on
    // that order when one tuple complements two that contradict each other.
    def conditionally(rows: Seq[Seq[String]])(op: Seq[Seq[String]] => Seq[Seq[String]]) = {
      val applied = Operators.perKey(rows, keyIdx)(op)
      if (eisSum(applied) >= eisSum(rows)) applied else rows
    }
    val result = ordered.reduceOption { (acc, t) =>
      conditionally(conditionally(acc ++ t)(Operators.complementGroup))(Operators.subsumeGroup)
    }.getOrElse(Seq.empty)

    // Lines 14–16: unlabel; rows are already padded and in source order.
    Operators.localDf(source.df.sparkSession, cols, result.map(removeLabeledNulls))
  }
}
