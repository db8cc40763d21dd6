package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Operators, Similarity}

/** Small in-memory string table — the execution substrate for the
  * Auto-Pipeline* and Ver baselines.
  *
  * Both baselines only complete on the Small benchmark in the paper
  * (timing out elsewhere); their search loops evaluate hundreds of
  * intermediate tables, so paying a Spark job per candidate pipeline step
  * would measure scheduler latency, not the algorithms. We collect the
  * (row-capped) inputs once and run the search in memory; inputs larger
  * than the cap are reported as timeouts, reproducing the paper's
  * behaviour.
  */
final case class MemTable(cols: Vector[String], rows: Vector[Vector[String]]) {

  def project(keep: Seq[String]): MemTable = {
    val idx = keep.filter(cols.contains).map(cols.indexOf).toVector
    MemTable(idx.map(cols), rows.map(r => idx.map(r)).distinct)
  }

  /** Rows whose values in `keyCols` appear among `keys` (σ by target keys). */
  def selectKeys(keyCols: Seq[String], keys: Set[Vector[String]]): MemTable = {
    if (!keyCols.forall(cols.contains)) return this
    val idx = keyCols.map(cols.indexOf).toVector
    MemTable(cols, rows.filter(r => keys.contains(idx.map(r))))
  }

  def outerUnion(other: MemTable): MemTable = {
    val allCols = (cols ++ other.cols.filterNot(cols.contains)).distinct
    def pad(t: MemTable): Vector[Vector[String]] = {
      val pos = allCols.map(c => t.cols.indexOf(c))
      t.rows.map(r => pos.map(i => if (i >= 0) r(i) else null))
    }
    MemTable(allCols, (pad(this) ++ pad(other)).distinct)
  }

  /** Natural equi-join on all shared columns. `how` ∈ inner|left|full. */
  def naturalJoin(other: MemTable, how: String): MemTable = {
    val shared = cols.filter(other.cols.contains)
    val outCols = cols ++ other.cols.filterNot(cols.contains)
    if (shared.isEmpty) return outerUnion(other) // degenerate: no join key
    val li = shared.map(cols.indexOf).toVector
    val ri = shared.map(other.cols.indexOf).toVector
    val rExtraIdx = other.cols.zipWithIndex.filterNot { case (c, _) => cols.contains(c) }.map(_._2)
    val rIndex = other.rows.groupBy(r => ri.map(r))
    val nullsR = Vector.fill(rExtraIdx.size)(null: String)
    val matchedRight = scala.collection.mutable.Set[Vector[String]]()
    val out = scala.collection.mutable.ArrayBuffer[Vector[String]]()
    for (l <- rows) {
      val k = li.map(l)
      val ms = if (k.contains(null)) Vector.empty else rIndex.getOrElse(k, Vector.empty)
      if (ms.nonEmpty) {
        matchedRight += k
        ms.foreach(r => out += l ++ rExtraIdx.map(r))
      } else if (how == "left" || how == "full") out += l ++ nullsR
    }
    if (how == "full") {
      // Right-only rows: shared columns take the right value, left-only
      // columns are null.
      for (r <- other.rows) {
        val k = ri.map(r)
        if (!k.contains(null) && !matchedRight.contains(k)) {
          val row = cols.map { c =>
            val i = shared.indexOf(c)
            if (i >= 0) r(ri(i)) else null
          } ++ rExtraIdx.map(r)
          out += row
        }
      }
    }
    MemTable(outCols, out.toVector.distinct)
  }

  def padTo(target: Seq[String]): MemTable = {
    val pos = target.map(c => cols.indexOf(c)).toVector
    MemTable(target.toVector, rows.map(r => pos.map(i => if (i >= 0) r(i) else null)).distinct)
  }
}

object MemTable {

  def fromDf(df: DataFrame, rowCap: Int): Option[MemTable] = {
    val capped = Operators.collectRows(df.limit(rowCap + 1))
    if (capped.length > rowCap) None else Some(MemTable(df.columns.toVector, capped))
  }

  def toDf(t: MemTable, spark: SparkSession): DataFrame = Operators.localDf(spark, t.cols, t.rows)

  /** In-memory EIS against a source MemTable, with the alignment
    * kernel of [[repro.core.Similarity]]; used to score search states
    * cheaply.
    */
  def eis(t: MemTable, source: MemTable, keys: Seq[String]): Double =
    Similarity.align(source.cols, keys, source.rows, t.padTo(source.cols).rows).eis
}
