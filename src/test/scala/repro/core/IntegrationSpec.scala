package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Fixtures, SparkSpec}
import repro.discovery.Expand
import repro.lake.SourceTable

/** Table Integration (Algorithm 2). */
class IntegrationSpec extends SparkSpec {

  private val N: String = null
  private lazy val source = Fixtures.figure3Source(spark)

  private def expanded(names: String*): Seq[Expand.Expanded] = {
    val all = Map(
      "A" -> Fixtures.tableA(spark), "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark), "D" -> Fixtures.tableD(spark))
    val w = Map(
      ("A", "B") -> Map("Name" -> 1.0),
      ("A", "C") -> Map("Name" -> 1.0),
      ("A", "D") -> Map("Name" -> 1.0))
    Expand.expandAll(names.map(n => n -> all(n)), source, w)
  }

  private val cols = Seq("ID", "Name", "Age", "Gender", "Education")
  private val keyIdx = Seq(0)
  private lazy val srcRows = Operators.collectRows(source.df)
  private def srcRow(id: String) = srcRows.find(_.head == id).get

  /** A table's rows padded to the source schema, each labeled against
    * its source tuple (only the columns the table has).
    */
  private def labeledRows(t: DataFrame) = {
    val present = cols.indices.filter(i => t.columns.contains(cols(i))).toSet
    Operators.collectRows(Operators.padToSourceSchema(t, source))
      .map(r => Integration.labelNulls(r, srcRow(r.head), cols, keyIdx, present))
  }

  test("labeledSource replaces nulls with deterministic tokens") {
    val smith = Integration.labelSource(srcRow("0"), cols, keyIdx)
    val g = smith(cols.indexOf("Gender"))
    assert(g != null && g.startsWith(Integration.NullLabelPrefix))
    // Non-null cells unchanged.
    assert(smith(cols.indexOf("Name")) == "Smith")
  }

  test("labelNulls labels only cells null in BOTH table and source") {
    val a = Fixtures.tableA(spark) // Brown's Education is null; S has Masters
    val brown = labeledRows(a).find(_(1) == "Brown").get
    // S has Masters there → stays a real null (so κ can fill it later).
    assert(brown(cols.indexOf("Education")) == null)
    // Columns A lacks stay real nulls even where S is null (Smith's Gender).
    assert(labeledRows(a).find(_(1) == "Smith").get(cols.indexOf("Gender")) == null)
  }

  test("labelNulls labels a shared null so it cannot be over-combined") {
    val d = Expand.joinCoalesce(Fixtures.tableD(spark), Fixtures.tableA(spark), "Name")
    val smith = labeledRows(d).find(_(1) == "Smith").get
    val g = smith(cols.indexOf("Gender"))
    // D's Smith Gender is null and S's is null → labeled.
    assert(g != null && g.startsWith(Integration.NullLabelPrefix))
    // And it is the token the labeled source carries.
    assert(g == Integration.labelSource(srcRow("0"), cols, keyIdx)(cols.indexOf("Gender")))
  }

  test("removeLabeledNulls restores nulls and only nulls") {
    val back = srcRows.map(s => Integration.removeLabeledNulls(Integration.labelSource(s, cols, keyIdx)))
    assert(back == srcRows)
  }

  test("integrating A, B, D reclaims the Figure 3 source exactly") {
    val tabs = expanded("A", "B", "D").map(_.df)
    val out = Integration.integrate(tabs, source)
    assert(out.collect().toSet == source.df.collect().toSet)
  }

  test("integrating A and D alone also reclaims the source exactly") {
    val out = Integration.integrate(expanded("A", "D").map(_.df), source)
    assert(out.collect().toSet == source.df.collect().toSet)
  }

  test("integrating with contradicting C keeps erroneous tuples separate, not merged") {
    val out = Integration.integrate(expanded("A", "B", "C", "D").map(_.df), source)
    // Every source tuple must still be reclaimed exactly (EIS guard keeps
    // the correct tuples); extra C-derived tuples may exist.
    val outRows = out.collect().toSet
    source.df.collect().foreach(r => assert(outRows.contains(r), s"missing $r"))
  }

  test("integration output always has the source schema") {
    val onlyA = expanded("A").map(_.df)
    val out = Integration.integrate(onlyA, source)
    assert(out.columns.toSeq == source.df.columns.toSeq)
  }

  test("integration of an empty table set is the empty source-shaped table") {
    val out = Integration.integrate(Seq.empty, source)
    assert(out.columns.toSeq == source.df.columns.toSeq)
    assert(out.count() == 0)
  }

  test("conditional subsumption does not remove a tuple that matches a source null") {
    // Source row (1, x, ⊥); tables offer (1, x, ⊥) [correct] and (1, x, y)
    // [over-complete]. Without null labeling, β would subsume the correct
    // tuple away; the guard must keep a tuple matching the source exactly.
    val src = SourceTable("s",
      Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", N))), Seq("k"))
    val tGood = Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", N)))
    val tOver = Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", "y")))
    val out = Integration.integrate(Seq(tGood, tOver), src)
    val rows = out.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(rows.contains(("1", "x", null)), s"got $rows")
  }

  test("κ that leaves EIS unchanged is still applied (EIS >= rule)") {
    // Source (1, x, y). T1 reclaims it; T2 = (1, q, ⊥) and T3 = (1, ⊥, r)
    // complement each other and both contradict it. Merging them keeps the
    // best tuple, so EIS ties and κ must run: (1, q, r) replaces them.
    val src = SourceTable("s",
      Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", "y"))), Seq("k"))
    val t1 = Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", "y")))
    val t2 = Fixtures.stringDf(spark, Seq("k", "a"), Seq(Seq("1", "q")))
    val t3 = Fixtures.stringDf(spark, Seq("k", "b"), Seq(Seq("1", "r")))
    val out = Integration.integrate(Seq(t1, t2, t3), src)
    val rows = out.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(rows == Set(("1", "x", "y"), ("1", "q", "r")), s"got $rows")
  }
}
