package genbench

import java.io.File
import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.benchgen.{TpTr, Variants, WebBench}
import repro.lake.{Lake, LakeIndex, SourceTable, TableRepo}

/** The benchmark's workloads: which lake, which sources, which methods. */
object Workloads {

  /** A lake opened for a run: repo, cached index, cached sources. */
  final case class Opened(repo: TableRepo, index: DataFrame, sources: Seq[SourceTable],
                          classes: Map[String, String])

  final case class Workload(
      name: String,
      /** Every generator parameter, the generator seeds included. */
      params: Seq[(String, Any)],
      /** The sources a run reclaims; the run seed only draws their order. */
      sourceSet: Seq[String],
      /** Methods after Gen-T (the Table IV baselines on the web workloads). */
      baselines: Seq[String],
      excludeSelf: Boolean,
      generate: (SparkSession, String) => Unit,
      open: (SparkSession, String) => Opened)

  /** TP-TR query class of a source, from its query number. */
  def tptrClass(name: String): String = name.drop(1).take(2).toInt match {
    case q if q <= 7 => "single"
    case q if q <= 11 => "union"
    case q if q <= 19 || (q >= 23 && q <= 25) => "inner_join"
    case q if q <= 22 => "outer_join"
    case _ => "union_of_joins"
  }

  private def tptr(name: String, scale: TpTr.Scale, distractors: Int,
                   sourceSet: Seq[String]): Workload = {
    def build(spark: SparkSession, root: String) =
      TpTr.build(spark, root, scale, nullP = 0.5, errP = 0.5, distractors = distractors)
    Workload(name,
      Seq("generator" -> "TpTr", "scale" -> scale.name, "sf" -> scale.sf,
        "smallCaps" -> scale.smallCaps, "nullP" -> 0.5, "errP" -> 0.5,
        "distractors" -> distractors, "distractorSeed" -> 7),
      sourceSet, Seq.empty, excludeSelf = false,
      (spark, root) => build(spark, root),
      (spark, root) => {
        val b = build(spark, root)
        val keep = b.sources.filter(s => sourceSet.contains(s.name))
        Opened(b.repo, b.index, keep, keep.map(s => s.name -> tptrClass(s.name)).toMap)
      })
  }

  /** A TP-TR lake cut down to some base tables and versions, with the
    * queries over those tables as sources. Generated from the same
    * pieces as `TpTr.build`: SynthData originals, their `Variants`, and
    * `TpTr.queries` evaluated over the originals.
    */
  private def tptrSubset(name: String, scale: TpTr.Scale, bases: Seq[String],
                         versions: Seq[String], sourceSet: Seq[String]): Workload = {
    val qs = TpTr.queries(scale).filter(q => sourceSet.contains(q.name))
    require(qs.forall(_.baseTables.subsetOf(bases.toSet)), s"$name: query over a missing table")
    def srcDir(root: String) = new File(root, "sources")
    Workload(name,
      Seq("generator" -> "TpTr-subset", "scale" -> scale.name, "sf" -> scale.sf,
        "smallCaps" -> scale.smallCaps, "bases" -> bases.mkString("+"),
        "versions" -> versions.mkString("+"), "nullP" -> 0.5, "errP" -> 0.5,
        "queries" -> qs.map(_.name.take(3)).mkString("+")),
      sourceSet, Seq.empty, excludeSelf = false,
      (spark, root) => {
        val originals = SynthData.allTables(spark, scale.sf).filter(t => bases.contains(t._1))
          .map { case (k, v) => k -> Lake.stringify(v).cache() }
        originals.values.foreach(_.count())
        val repo = TableRepo(root, spark)
        originals.foreach { case (nm, df) =>
          Variants.fourVersions(nm, df, TpTr.baseKeys(nm), 0.5, 0.5)
            .filter { case (v, _) => versions.exists(x => v.endsWith("_" + x)) }
            .foreach { case (v, vdf) => repo.write(v, vdf) }
        }
        qs.foreach(q => Lake.stringify(q.build(originals)).write.mode("overwrite")
          .parquet(new File(srcDir(root), q.name).toString))
        originals.values.foreach(_.unpersist())
      },
      (spark, root) => {
        val repo = TableRepo(root, spark)
        val index = LakeIndex.buildOrLoad(repo, spark).cache()
        val sources = qs.map(q => SourceTable(q.name,
          spark.read.parquet(new File(srcDir(root), q.name).toString).cache(), q.keys))
        Opened(repo, index, sources, sources.map(s => s.name -> tptrClass(s.name)).toMap)
      })
  }

  // Every query class (single, union, inner join, outer join, union of
  // joins), and the inner joins Gen-T reclaims with recall 0 today
  // (q13, q16, q23, q25).
  private val tptrSources = Seq(
    "q01_customer", "q09_orders_union2", "q12_orders_customer",
    "q13_lineitem_orders", "q16_partsupp_part", "q23_li_orders_customer",
    "q25_cust_nation_region", "q20_orders_leftjoin_customer", "q26_union_of_joins")

  private def web(name: String, nTables: Int, nReclaimable: Int, nDuplicatePairs: Int,
                  set: Seq[String]): Workload = {
    def build(spark: SparkSession, root: String) =
      WebBench.build(spark, root, nTables = nTables, nReclaimable = nReclaimable,
        nDuplicatePairs = nDuplicatePairs, distractors = 0, seed = 5)
    Workload(name,
      Seq("generator" -> "WebBench", "nTables" -> nTables, "nReclaimable" -> nReclaimable,
        "nDuplicatePairs" -> nDuplicatePairs, "distractors" -> 0, "seed" -> 5),
      set, Seq("Alite", "AlitePs", "AutoPipelineStar"), excludeSelf = true,
      (spark, root) => build(spark, root),
      (spark, root) => {
        val b = build(spark, root)
        val keep = b.sources.filter(s => set.contains(s.name))
          .map(s => s.copy(df = s.df.cache()))
        def cls(n: String) =
          if (b.reclaimable.contains(n)) "planted" else if (b.duplicates.contains(n)) "duplicate"
          else "unrelated"
        Opened(b.repo, b.index, keep, keep.map(s => s.name -> cls(s.name)).toMap)
      })
  }

  val all: Seq[Workload] = Seq(
    tptrSubset("tptr_micro", TpTr.Small, Seq("customer", "orders"), Seq("n1", "n2"),
      Seq("q01_customer")),
    // A duplicate: one candidate, and every baseline produces an output.
    web("web_micro", nTables = 4, nReclaimable = 1, nDuplicatePairs = 1, Seq("web_1")),
    tptr("tptr_small", TpTr.Small, 0, tptrSources),
    tptr("santos_med", TpTr.Med, 400, tptrSources),
    web("web", nTables = 40, nReclaimable = 3, nDuplicatePairs = 6,
      Seq("web_0", "web_3", "web_20", "web_31")))

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Directory of the cached lake: one per generator parameter set. */
  def lakeKey(w: Workload): String =
    w.name + "__" + w.params.map { case (k, v) => s"$k=$v" }.mkString("_")

  /** Generate the lake under `lakesDir` unless a complete copy with the
    * same parameters is there, and return its root. A lake is complete
    * once its manifest is written; partial lakes are discarded.
    */
  def ensureLake(session: => SparkSession, w: Workload, lakesDir: File): File = {
    val root = new File(lakesDir, lakeKey(w))
    if (new File(root, "manifest.json").isFile) return root
    val spark = session
    val tmp = new File(lakesDir, lakeKey(w) + ".partial")
    deleteTree(tmp)
    deleteTree(root)
    tmp.mkdirs()
    w.generate(spark, tmp.toString)
    spark.catalog.clearCache()
    val repo = TableRepo(tmp.toString, spark)
    val tables = repo.tableNames.map { n =>
      Map("name" -> n, "rows" -> repo.read(n).df.count(),
        "bytes" -> treeBytes(new File(new File(tmp, "tables"), n)))
    }
    deleteTree(new File(tmp, "index"))
    val manifest = Map(
      "workload" -> w.name,
      "params" -> w.params.map { case (k, v) => k -> v }.toMap,
      "tables" -> tables,
      "lake_bytes" -> tables.map(_("bytes").asInstanceOf[Long]).sum,
      "lake_rows" -> tables.map(_("rows").asInstanceOf[Long]).sum)
    Files.writeString(new File(tmp, "manifest.json").toPath, Json.render(manifest))
    Files.move(tmp.toPath, root.toPath)
    root
  }

  def lakeBytes(root: File): Long = treeBytes(new File(root, "tables"))

  def treeBytes(f: File): Long =
    if (!f.exists()) 0L
    else if (f.isFile) f.length()
    else Option(f.listFiles()).toSeq.flatten.map(treeBytes).sum

  def deleteTree(f: File): Unit = if (f.exists()) {
    val p: Path = f.toPath
    val s = Files.walk(p)
    try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(x => Files.delete(x))
    finally s.close()
  }
}
