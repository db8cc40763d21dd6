package repro.core

import java.nio.file.Files
import repro.{Fixtures, SparkSpec}
import repro.lake.{LakeIndex, TableRepo}

/** Gen-T end to end on the Figure 3 lake. */
class GenTSpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)

  private lazy val repo: TableRepo = {
    val root = Files.createTempDirectory("gent").toString
    TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark),
      "D" -> Fixtures.tableD(spark),
      "unrelated" -> Fixtures.stringDf(spark,
        Seq("zz"), Seq(Seq("foo"), Seq("bar")))))
  }
  private lazy val index = LakeIndex.build(repo, spark)

  test("Gen-T reclaims the Figure 3 source exactly") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.reclaimed.collect().toSet == source.df.collect().toSet,
      s"originating=${r.originating}")
    val scores = Metrics.all(r.reclaimed, source)
    assert(scores.perfect, s"$scores")
  }

  test("Gen-T's originating tables exclude the contradicting Table C") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.originating.nonEmpty)
    assert(!r.originating.exists(_.startsWith("C")), s"got ${r.originating}")
  }

  test("Gen-T returns an empty source-shaped table when the lake is unrelated") {
    val root = Files.createTempDirectory("gent-empty").toString
    val emptyRepo = TableRepo.create(root, spark, Map(
      "junk" -> Fixtures.stringDf(spark, Seq("q"), Seq(Seq("nothing")))))
    val idx = LakeIndex.build(emptyRepo, spark)
    val r = GenT.reclaim(emptyRepo, idx, source, spark)
    assert(r.reclaimed.count() == 0)
    assert(r.originating.isEmpty)
    assert(r.reclaimed.columns.toSeq == source.df.columns.toSeq)
  }

  test("reclaimFromCandidates with empty candidates yields empty result") {
    val r = GenT.reclaimFromCandidates(repo, Seq.empty, source, spark)
    assert(r.reclaimed.count() == 0 && r.originating.isEmpty)
  }

  test("Gen-T leaves no cached RDD behind") {
    source.df.count(); index.count()
    val before = spark.sparkContext.getPersistentRDDs.size
    val r = GenT.reclaim(repo, index, source, spark)
    r.reclaimed.collect()
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("Gen-T result reports candidates and timing") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.candidates.nonEmpty)
    assert(r.millis >= 0)
  }
}
