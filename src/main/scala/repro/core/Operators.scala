package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.lake.SourceTable
import scala.jdk.CollectionConverters._

/** The paper's integration operators (§IV-B): Outer Union (⊎), Inner
  * Union (∪), Projection (π), Selection (σ), Subsumption (β), and
  * Complementation (κ).
  *
  * ⊎, π and σ are DataFrame transformations. β and κ are pairwise tuple
  * operators. Two tuples can only subsume or complement each other if
  * they agree on every attribute where both are non-null — so once every
  * tuple carries a non-null source-key value (guaranteed after
  * ProjectSelect/Expand), grouping by the key is exact and turns the
  * quadratic pairwise scan into small per-key closures ([[perKey]]),
  * which Integration runs on the driver over collected rows. The generic
  * (key-free) variants needed by the ALITE baseline live in [[Fd]].
  */
object Operators {

  /** Outer Union (⊎): union by column name; columns missing on one side
    * are padded with nulls. Commutative and associative.
    */
  def outerUnion(a: DataFrame, b: DataFrame): DataFrame =
    a.unionByName(b, allowMissingColumns = true)

  def outerUnionAll(dfs: Seq[DataFrame]): DataFrame = {
    require(dfs.nonEmpty, "outerUnionAll of zero tables")
    dfs.reduce(outerUnion)
  }

  /** Project `df` onto the columns of the source it actually has,
    * in source order (π of Algorithm 2's ProjectSelect).
    */
  def projectToSource(df: DataFrame, source: SourceTable): DataFrame = {
    val keep = source.df.columns.filter(df.columns.contains).toIndexedSeq
    df.select(keep.map(col): _*)
  }

  /** Select tuples whose key value appears among the source's key values
    * (σ of Algorithm 2's ProjectSelect) — a distributed semi-join.
    * Tables missing some key column are returned unchanged (they are
    * expected to have been expanded first; ALITE-PS also uses this and
    * simply keeps such tables whole).
    */
  def selectSourceKeys(df: DataFrame, source: SourceTable): DataFrame =
    if (!source.keys.forall(df.columns.contains)) df
    else {
      val sk = source.df.select(source.keys.map(col): _*).distinct()
      df.join(sk, source.keys, "left_semi")
    }

  /** ProjectSelect of Algorithm 2, line 3. */
  def projectSelect(df: DataFrame, source: SourceTable): DataFrame =
    selectSourceKeys(projectToSource(df, source), source)

  /** InnerUnion of Algorithm 2, line 4: union tables that share the same
    * column set (same schema ⇒ outer union = inner union, Lemma 11).
    */
  def innerUnionGroups(dfs: Seq[DataFrame]): Seq[DataFrame] =
    dfs.groupBy(_.columns.toSet).values.toSeq
      .map(group => group.reduce((a, b) => a.unionByName(b)))

  // ---------------------------------------------------------------------
  // Pairwise tuple predicates over rows represented as Seq[String]
  // (null = ⊥). Shared by the key-grouped operators here and the generic
  // full-disjunction closure in Fd.
  // ---------------------------------------------------------------------

  /** a subsumes b: wherever b is non-null they agree, and a is non-null
    * somewhere b is null.
    */
  private[core] def subsumes(a: Seq[String], b: Seq[String]): Boolean = {
    var strict = false
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (y != null && x != y) return false
      if (y == null && x != null) strict = true
      i += 1
    }
    strict
  }

  /** a and b complement: agree on all both-non-null attributes, share at
    * least one non-null value, and each has a non-null where the other
    * has a null.
    */
  private[core] def complement(a: Seq[String], b: Seq[String]): Boolean = {
    var share = false; var aOnly = false; var bOnly = false
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x != null && y != null) { if (x != y) return false; share = true }
      else if (x != null) aOnly = true
      else if (y != null) bOnly = true
      i += 1
    }
    share && aOnly && bOnly
  }

  private[core] def merge(a: Seq[String], b: Seq[String]): Seq[String] =
    a.indices.map(i => if (a(i) != null) a(i) else b(i))

  /** Remove duplicates and subsumed tuples from a small in-memory group. */
  private[core] def subsumeGroup(rows: Seq[Seq[String]]): Seq[Seq[String]] = {
    val distinct = rows.distinct
    distinct.filterNot(r => distinct.exists(r2 => !(r2 eq r) && r2 != r && subsumes(r2, r)))
  }

  /** Apply κ within a small in-memory group: repeatedly replace a
    * complementing pair with its merge until none remain.
    */
  private[core] def complementGroup(rows: Seq[Seq[String]]): Seq[Seq[String]] =
    pairwiseFixpoint(rows) { (a, b) => if (complement(a, b)) Some(merge(a, b)) else None }

  /** TakeMinimalForm of Algorithm 2, line 6, on one key group: dedupe + β
    * + κ (the paper's "remove duplicate tuples, subsumed tuples (β), and
    * take the resulting tuples of complementation (κ)").
    */
  private[core] def minimalForm(rows: Seq[Seq[String]]): Seq[Seq[String]] =
    subsumeGroup(complementGroup(subsumeGroup(rows)))

  /** Pairwise merge to a fixpoint, shared by κ and Matrix Traversal's
    * Combine(): starting from the distinct rows, take the first pair
    * (i < j, scanning i then j) that `mergePair` merges, remove both,
    * append the merge unless already present, and rescan from the start
    * until no pair merges.
    */
  def pairwiseFixpoint[A](rows: Seq[A])(mergePair: (A, A) => Option[A]): Seq[A] = {
    val cur = rows.distinct.toBuffer
    def firstMerge: Option[(Int, Int, A)] =
      cur.indices.iterator.flatMap { i =>
        (i + 1 until cur.length).iterator.flatMap(j => mergePair(cur(i), cur(j)).map(m => (i, j, m)))
      }.nextOption()
    var next = firstMerge
    while (next.isDefined) {
      val (i, j, m) = next.get
      cur.remove(j); cur.remove(i)
      if (!cur.contains(m)) cur.append(m)
      next = firstMerge
    }
    cur.toSeq
  }

  /** Run `f` over the rows of each key group (rows sharing the values at
    * `keyIdx`): groups in order of first appearance, rows in input order.
    * β and κ only act within a key group: once every tuple carries its
    * non-null source key (after ProjectSelect/Expand), two tuples can only
    * subsume or complement each other if they share it.
    */
  def perKey(rows: Seq[Seq[String]], keyIdx: Seq[Int])(
      f: Seq[Seq[String]] => Seq[Seq[String]]): Seq[Seq[String]] = {
    val groups = rows.groupBy(r => keyIdx.map(r))
    rows.map(r => keyIdx.map(r)).distinct.flatMap(k => f(groups(k)))
  }

  // ---------------------------------------------------------------------
  // Driver-side tables
  // ---------------------------------------------------------------------

  /** Collect `df` as string rows (null = ⊥). */
  def collectRows(df: DataFrame): Vector[Vector[String]] = {
    val n = df.columns.length
    df.collect().toVector.map(r => Vector.tabulate(n)(i => Option(r.get(i)).map(_.toString).orNull))
  }

  /** A local (driver-held) string-typed DataFrame. */
  def localDf(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    val schema = StructType(cols.map(c => StructField(c, StringType, nullable = true)))
    spark.createDataFrame(rows.map(Row.fromSeq).asJava, schema)
  }

  /** Pad `df` with null columns for every source column it lacks, then
    * order columns as in the source (Algorithm 2, lines 15–16).
    */
  def padToSourceSchema(df: DataFrame, source: SourceTable): DataFrame = {
    val cols: Seq[Column] = source.df.columns.toIndexedSeq.map { c =>
      if (df.columns.contains(c)) col(c) else lit(null).cast("string").as(c)
    }
    df.select(cols: _*)
  }
}
