package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import repro.{Fixtures, SparkSpec}
import repro.discovery.{Expand, MatrixTraversal}
import repro.lake.SourceTable

/** Property-based checks of the pairwise tuple operators (driver-side
  * closures shared by β, κ, and the FD substrate) and of the alignment
  * kernel against Matrix Traversal's Spark coding. Raw ScalaCheck is used
  * (scalatestplus is not among the offline deps).
  */
class OperatorsPropSpec extends SparkSpec {

  private def check(prop: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  private val cell: Gen[String] = Gen.oneOf(null, "a", "b", "c")
  private def row(n: Int): Gen[Seq[String]] = Gen.listOfN(n, cell).map(_.toSeq)
  private def rows(n: Int): Gen[Seq[Seq[String]]] =
    Gen.choose(0, 8).flatMap(k => Gen.listOfN(k, row(n)).map(_.toSeq))

  test("subsumes is irreflexive and antisymmetric") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      !Operators.subsumes(a, a) &&
        !(Operators.subsumes(a, b) && Operators.subsumes(b, a))
    })
  }

  test("a tuple with no nulls is never subsumed") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      if (b.forall(_ != null)) !Operators.subsumes(a, b) else true
    })
  }

  test("complement is symmetric") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      Operators.complement(a, b) == Operators.complement(b, a)
    })
  }

  test("merge of complementing tuples subsumes both originals") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      if (Operators.complement(a, b)) {
        val m = Operators.merge(a, b)
        Operators.subsumes(m, a) && Operators.subsumes(m, b)
      } else true
    })
  }

  test("subsumeGroup output has no subsumed or duplicate tuples") {
    check(Prop.forAll(rows(3)) { rs =>
      val out = Operators.subsumeGroup(rs)
      out.distinct == out &&
        !out.exists(r => out.exists(r2 => r2 != r && Operators.subsumes(r2, r)))
    })
  }

  test("subsumeGroup never invents tuples") {
    check(Prop.forAll(rows(3)) { rs =>
      Operators.subsumeGroup(rs).forall(rs.contains)
    })
  }

  test("complementGroup output has no complementing pair") {
    check(Prop.forAll(rows(3)) { rs =>
      !Operators.complementGroup(rs).combinations(2).exists {
        case Seq(x, y) => Operators.complement(x, y)
        case _ => false
      }
    })
  }

  test("complementGroup preserves every non-null cell value somewhere") {
    check(Prop.forAll(rows(3)) { rs =>
      val out = Operators.complementGroup(rs)
      val inCells = rs.flatMap(r => r.zipWithIndex.filter(_._1 != null)).toSet
      val outCells = out.flatMap(r => r.zipWithIndex.filter(_._1 != null)).toSet
      inCells.subsetOf(outCells)
    })
  }

  // Codes vs values: Matrix Traversal codes cells with Spark `when`
  // expressions, Similarity with the driver-side kernel. Below the
  // per-key row cap both must give the same EIS.
  private val keyedCase: Gen[(Seq[Seq[String]], Seq[String], Seq[Seq[String]])] = for {
    nSrc <- Gen.choose(1, 4)
    src <- Gen.listOfN(nSrc, row(2))
    tCols <- Gen.oneOf(Seq("x", "y"), Seq("x"), Seq("y"))
    nT <- Gen.choose(0, 6)
    t <- Gen.listOfN(nT, for {
      k <- Gen.choose(0, nSrc) // nSrc: a key the source lacks
      r <- row(tCols.size)
    } yield s"K$k" +: r)
  } yield (src.zipWithIndex.map { case (r, i) => s"K$i" +: r }, tCols, t)

  test("matrix-simulated EIS equals Similarity.eis on random keyed tables") {
    check(Prop.forAll(keyedCase) { case (srcRows, tCols, tRows) =>
      val source = SourceTable("s", Fixtures.stringDf(spark, Seq("k", "x", "y"), srcRows), Seq("k"))
      val t = Fixtures.stringDf(spark, "k" +: tCols, tRows)
      val m = MatrixTraversal.initMatrices(Seq(Expand.Expanded("t", t, Seq("t"))), source)("t")
      val simulated = MatrixTraversal.evaluate(m, srcRows.size, 2)
      val eis = Similarity.eis(t, source)
      (math.abs(simulated - eis) < 1e-12) :| s"matrix $simulated vs kernel $eis"
    }, min = 12)
  }
}
