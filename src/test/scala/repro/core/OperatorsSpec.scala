package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.lake.SourceTable

/** Integration operators (§IV-B) + Theorem 8's representative-operator
  * lemmas, checked against DuckDB via the Oracle. β and κ run on
  * driver-side rows grouped by key, as in Integration.
  */
class OperatorsSpec extends SparkSpec {

  private val N: String = null
  private def df(cols: Seq[String], rows: Seq[Seq[String]]) =
    Fixtures.stringDf(spark, cols, rows)

  // -------------------------------------------------- outer union

  test("outer union pads missing columns with nulls") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = df(Seq("k", "y"), Seq(Seq("2", "b")))
    val u = Operators.outerUnion(a, b)
    assert(u.columns.toSeq == Seq("k", "x", "y"))
    val rows = u.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(rows == Set(("1", "a", null), ("2", null, "b")))
  }

  test("outer union on equal schemas equals inner union (Lemma 11)") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = df(Seq("k", "x"), Seq(Seq("2", "b")))
    Oracle.assertEquivalent(
      Operators.outerUnion(a, b),
      "SELECT k, x FROM a UNION ALL SELECT k, x FROM b",
      "a" -> a, "b" -> b)
  }

  test("outer union is commutative up to row order") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a"), Seq("2", "b")))
    val b = df(Seq("k", "y"), Seq(Seq("1", "c")))
    val ab = Operators.outerUnion(a, b).select("k", "x", "y").collect().toSet
    val ba = Operators.outerUnion(b, a).select("k", "x", "y").collect().toSet
    assert(ab == ba)
  }

  test("outerUnionAll of one table is itself") {
    val a = df(Seq("k"), Seq(Seq("1")))
    assert(Operators.outerUnionAll(Seq(a)).collect().toSeq == a.collect().toSeq)
  }

  // -------------------------------------------------- project / select

  test("projectToSource keeps only source columns in source order") {
    val src = SourceTable("s", df(Seq("k", "a", "b"), Seq(Seq("1", "x", "y"))), Seq("k"))
    val t = df(Seq("b", "zzz", "k"), Seq(Seq("y", "no", "1")))
    assert(Operators.projectToSource(t, src).columns.toSeq == Seq("k", "b"))
  }

  test("selectSourceKeys keeps only tuples with a source key value") {
    val src = SourceTable("s", df(Seq("k", "a"), Seq(Seq("1", "x"))), Seq("k"))
    val t = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("9", "q")))
    val sel = Operators.selectSourceKeys(t, src).collect()
    assert(sel.map(_.getString(0)).toSeq == Seq("1"))
  }

  test("selectSourceKeys passes tables lacking the key through unchanged") {
    val src = SourceTable("s", df(Seq("k", "a"), Seq(Seq("1", "x"))), Seq("k"))
    val t = df(Seq("b"), Seq(Seq("q"), Seq("r")))
    assert(Operators.selectSourceKeys(t, src).count() == 2)
  }

  test("selectSourceKeys with multi-attribute key matches all parts") {
    val src = SourceTable("s",
      df(Seq("k1", "k2", "a"), Seq(Seq("1", "2", "x"))), Seq("k1", "k2"))
    val t = df(Seq("k1", "k2"), Seq(Seq("1", "2"), Seq("1", "9"), Seq("9", "2")))
    assert(Operators.selectSourceKeys(t, src).count() == 1)
  }

  // -------------------------------------------------- inner union groups

  test("innerUnionGroups unions only same-schema tables") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = df(Seq("k", "x"), Seq(Seq("2", "b")))
    val c = df(Seq("k", "y"), Seq(Seq("3", "c")))
    val groups = Operators.innerUnionGroups(Seq(a, b, c))
    assert(groups.size == 2)
    assert(groups.map(_.count()).sorted == Seq(1L, 2L))
  }

  // -------------------------------------------------- subsumption

  /** β / κ / minimal form on in-memory rows, grouped by the key in column 0. */
  private def beta(rows: Seq[Seq[String]]) = Operators.perKey(rows, Seq(0))(Operators.subsumeGroup)
  private def kappa(rows: Seq[Seq[String]]) = Operators.perKey(rows, Seq(0))(Operators.complementGroup)

  test("subsumption removes a strictly-less-informative tuple") {
    val out = beta(Seq(Seq("1", "x", "y"), Seq("1", "x", N), Seq("1", N, N)))
    assert(out == Seq(Seq("1", "x", "y")))
  }

  test("subsumption keeps contradicting tuples apart") {
    assert(beta(Seq(Seq("1", "x"), Seq("1", "z"))).size == 2)
  }

  test("subsumption never merges across different keys") {
    assert(beta(Seq(Seq("1", "x"), Seq("2", N))).size == 2)
  }

  test("subsumption is idempotent") {
    val once = beta(Seq(Seq("1", "x", N), Seq("1", N, "y"), Seq("2", "p", "q"), Seq("2", "p", "q")))
    assert(beta(once).toSet == once.toSet)
  }

  test("subsumption deduplicates identical tuples") {
    assert(beta(Seq(Seq("1", "x"), Seq("1", "x"))).size == 1)
  }

  // -------------------------------------------------- complementation

  test("complementation merges two complementary tuples") {
    assert(kappa(Seq(Seq("1", "x", N), Seq("1", N, "y"))) == Seq(Seq("1", "x", "y")))
  }

  test("complementation leaves contradicting tuples apart") {
    assert(kappa(Seq(Seq("1", "x", "u"), Seq("1", "z", N))).size == 2)
  }

  test("complementation chains through a fixpoint") {
    val out = kappa(Seq(Seq("1", "x", N, N), Seq("1", N, "y", N), Seq("1", N, N, "z")))
    assert(out == Seq(Seq("1", "x", "y", "z")))
  }

  test("complementation does not merge tuples of different keys") {
    assert(kappa(Seq(Seq("1", "x", N), Seq("2", N, "y"))).size == 2)
  }

  // -------------------------------------------------- minimal form

  test("minimalForm = dedupe + β + κ") {
    val out = Operators.minimalForm(
      Seq(Seq("1", "x", N), Seq("1", "x", N), Seq("1", N, "y"), Seq("1", "x", "y")))
    assert(out == Seq(Seq("1", "x", "y")))
  }

  test("padToSourceSchema adds missing columns as nulls in source order") {
    val src = SourceTable("s", df(Seq("k", "a", "b"), Seq(Seq("1", "x", "y"))), Seq("k"))
    val t = df(Seq("b", "k"), Seq(Seq("y", "1")))
    val out = Operators.padToSourceSchema(t, src)
    assert(out.columns.toSeq == Seq("k", "a", "b"))
    val r = out.collect()(0)
    assert(r.getString(0) == "1" && r.getString(1) == null && r.getString(2) == "y")
  }

  // -------------------------------------------------- Theorem 8 lemmas

  private val t1 = df(Seq("k", "a"),
    Seq(Seq("1", "a1"), Seq("2", "a2"), Seq("3", "a3")))
  private val t2 = df(Seq("k", "b"),
    Seq(Seq("2", "b2"), Seq("3", "b3"), Seq("4", "b4")))

  /** Run a key-grouped operator (key `k`) on a small DataFrame via the
    * driver-side rows, as Integration does.
    */
  private def perKeyDf(df: DataFrame)(op: Seq[Seq[String]] => Seq[Seq[String]]): DataFrame =
    Operators.localDf(spark, df.columns.toIndexedSeq,
      Operators.perKey(Operators.collectRows(df), Seq(df.columns.indexOf("k")))(op))
  private def subsumption(df: DataFrame) = perKeyDf(df)(Operators.subsumeGroup)
  private def complementation(df: DataFrame) = perKeyDf(df)(Operators.complementGroup)

  /** σ(T1.C = T2.C ≠ ⊥, β(κ(T1 ⊎ T2))) — Lemma 12's right-hand side,
    * built from our operators (κ, β grouped on the shared column).
    */
  private def lemma12Rhs = {
    val merged = subsumption(complementation(Operators.outerUnion(t1, t2)))
    merged.where(col("a").isNotNull && col("b").isNotNull)
  }

  test("Lemma 12: inner join ≡ σβκ(T1 ⊎ T2) — against DuckDB") {
    Oracle.assertEquivalent(
      lemma12Rhs.select(col("k"), col("a"), col("b")),
      "SELECT t1.k AS k, a, b FROM t1 JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 13: left join ≡ β((T1 ⋈ T2) ⊎ T1) — against DuckDB") {
    val lhs = subsumption(Operators.outerUnion(lemma12Rhs, t1))
    Oracle.assertEquivalent(
      lhs.select(col("k"), col("a"), col("b")),
      "SELECT t1.k AS k, a, b FROM t1 LEFT JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 14: full outer join ≡ β(β((T1 ⋈ T2) ⊎ T1) ⊎ T2) — against DuckDB") {
    val left = subsumption(Operators.outerUnion(lemma12Rhs, t1))
    val full = subsumption(Operators.outerUnion(left, t2))
    Oracle.assertEquivalent(
      full.select(col("k"), col("a"), col("b")),
      "SELECT COALESCE(t1.k, t2.k) AS k, a, b FROM t1 FULL JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 15: cross product ≡ κ(π(T1,c) ⊎ π(T2,c)) — via FD closure, against DuckDB") {
    // Lemma 15 assumes T1 and T2 share no columns: rename the keys apart.
    val p1 = t1.select(col("k").as("k1"), col("a"), lit("const").as("c"))
    val p2 = t2.select(col("k").as("k2"), col("b"), lit("const").as("c"))
    val fd = Fd.fullDisjunction(Seq(p1, p2)).get
      .where(col("a").isNotNull && col("b").isNotNull)
    // π out the helper constant and the two k copies collide — keep a,b.
    Oracle.assertEquivalent(
      fd.select(col("a"), col("b")),
      "SELECT a, b FROM (SELECT a FROM t1) CROSS JOIN (SELECT b FROM t2)",
      "t1" -> t1, "t2" -> t2)
  }
}
