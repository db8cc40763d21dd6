package genbench

import java.io.File
import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Random, Success, Try}

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType
import repro.baselines.{Alite, AutoPipelineStar}
import repro.core.{GenT, Metrics}
import repro.discovery.SetSimilarity
import repro.jobs.JobSupport
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** The Gen-T benchmark: one closed loop, one client.
  *
  * {{{
  * python3 genbench/run.py --workload tptr_small --seed 1 --seconds 30 --trace 0
  * }}}
  *
  * A run generates (or reuses) the workload's lake, sets up several times
  * (session, index built from scratch, index and sources cached; the first,
  * cold set-up is the warm-up and the median is reported), then reclaims
  * the workload's sources in a seed-drawn order until `--seconds` have
  * passed and every source has been reclaimed once. Each
  * source goes through `SetSimilarity.findCandidates`,
  * `GenT.reclaimFromCandidates`, a collect of the reclaimed rows and
  * `Metrics.all`; on the web workloads also through the Table IV baselines. With
  * `--trace 1` a [[LayerTrace]] attributes time, jobs and rows to each
  * layer. The last line of standard output is the result object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: File)

  /** How many times set-up runs; the median is reported. */
  val Setups = 3

  /** One public call: its wall time and, when traced, its jobs. */
  final case class Call(name: String, ms: Double,
                        jobs: Seq[LayerTrace.JobRec], execs: Seq[LayerTrace.ExecRec])

  final case class SourceRun(
      name: String,
      cls: String,
      calls: Seq[Call],
      wallMs: Double,
      reclaimMs: Double,
      reclaimCpuMs: Double,
      candidates: Int,
      originating: Int,
      scores: Option[Metrics.Scores],
      baselineScores: Map[String, Option[Metrics.Scores]],
      attempted: Int,
      failures: Seq[String]) {
    def wall(call: String): Double = calls.filter(_.name == call).map(_.ms).sum
    def jobs(p: LayerTrace.JobRec => Boolean): Seq[LayerTrace.JobRec] =
      calls.flatMap(_.jobs).filter(p)
  }

  def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (argv.length % 2 != 0 || kv.size * 2 != argv.length) return Left("bad arguments")
    for {
      w <- kv.get("workload").toRight("--workload is required")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
      secs <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds must be > 0")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false); case "1" => Right(true); case _ => Left("--trace is 0 or 1")
      }
    } yield Args(w, seed, secs, trace, new File(kv.getOrElse("work", "genbench/work")))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv) match {
      case Right(a) => a
      case Left(msg) => Console.err.println(s"genbench: $msg"); sys.exit(2)
    }
    val w = Workloads.byName(args.workload).getOrElse {
      Console.err.println(s"genbench: unknown workload ${args.workload}; one of " +
        Workloads.all.map(_.name).mkString(", "))
      sys.exit(2)
    }
    val code = Try(run(args, w)) match {
      case Success(line) => println(line); 0
      case Failure(e) => e.printStackTrace(); 1
    }
    SparkSession.getActiveSession.foreach(_.stop())
    sys.exit(code)
  }

  private val jvmStart = System.nanoTime()
  private def log(msg: String): Unit =
    Console.err.println(f"[genbench ${nowMs(jvmStart) / 1000}%6.1f s] $msg")

  private def nowMs(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of every thread of this JVM (in local mode, all of Spark). */
  private def cpuMs(): Double = os.getProcessCpuTime / 1e6

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def newSession(w: Workloads.Workload): SparkSession =
    JobSupport.session(s"genbench-${w.name}")

  def run(args: Args, w: Workloads.Workload): String = {
    // Spark records this many frames of the caller's stack on each SQL
    // execution; the layer attribution matches on frames below Gen-T.
    System.setProperty("spark.callstack.depth", "80")
    val lakesDir = new File(args.work, "lakes")
    val runsDir = new File(args.work, "runs")
    lakesDir.mkdirs(); runsDir.mkdirs()

    // --- Workload generation (not part of set-up).
    val lakeRoot = Workloads.ensureLake(newSession(w), w, lakesDir)
    SparkSession.getActiveSession.foreach(_.stop())
    log(s"lake ${lakeRoot.getName}")

    // --- Set-up, several times: session, index from scratch, caches.
    val setupS = ArrayBuffer[Double]()
    var spark: SparkSession = null
    var opened: Workloads.Opened = null
    var trace: Option[LayerTrace] = None
    var indexMs = 0.0
    var indexJobs = 0
    var indexRows = 0L
    for (_ <- 0 until Setups) {
      if (spark != null) spark.stop()
      Workloads.deleteTree(new File(lakeRoot, "index"))
      val t0 = System.nanoTime()
      spark = newSession(w)
      trace = if (args.trace) Some(new LayerTrace) else None
      trace.foreach(spark.sparkContext.addSparkListener)
      val sc = spark.sparkContext
      val ti = System.nanoTime()
      sc.setJobGroup("LakeIndex", "LakeIndex.buildOrLoad")
      LakeIndex.buildOrLoad(TableRepo(lakeRoot.toString, spark), spark)
      indexMs = nowMs(ti)
      sc.setJobGroup("Setup", "open lake")
      opened = w.open(spark, lakeRoot.toString)
      indexRows = opened.index.count()
      opened.sources.foreach(_.df.count())
      sc.clearJobGroup()
      setupS += nowMs(t0) / 1000.0
      log(f"setup ${setupS.last}%.2f s (index ${indexMs / 1000}%.2f s)")
      indexJobs = trace.map(_.drainNew(sc)._1.count(_.group == "LakeIndex")).getOrElse(0)
    }
    val sc = spark.sparkContext
    log("set-up done")
    val indexBytes = Workloads.treeBytes(new File(lakeRoot, "index"))
    val lakeBytes = Workloads.lakeBytes(lakeRoot)

    // --- Draw the order of the sources from the seed, then time.
    val bySet = w.sourceSet.flatMap(n => opened.sources.find(_.name == n))
    val order = new Random(args.seed).shuffle(bySet)
    val spans = ArrayBuffer[Map[String, Any]]()
    val rddsStart = sc.getPersistentRDDs.size
    val tStart = System.nanoTime()
    val cpuStart = cpuMs()
    val runs = ArrayBuffer[SourceRun]()
    var i = 0
    while (nowMs(tStart) < args.seconds * 1000.0 || i < order.size) {
      runs += runSource(spark, w, opened, order(i % order.size), trace, Some(spans))
      i += 1
    }
    val timedS = nowMs(tStart) / 1000.0
    val timedCpuS = (cpuMs() - cpuStart) / 1000.0
    val rddsEnd = sc.getPersistentRDDs.size
    val cacheMb = sc.getRDDStorageInfo.map(_.memSize).sum / (1024.0 * 1024.0)

    // --- Checks and metrics.
    val failures = runs.flatMap(r => r.failures.map(f => s"${r.name}: $f"))
    val attempted = runs.map(_.attempted).sum
    val distinct = runs.groupBy(_.name).map(_._2.head).toSeq
    val scored = distinct.flatMap(_.scores)
    def mean(xs: Seq[Double]) = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
    val scoresSane = runs.flatMap(_.scores).forall(s =>
      Seq(s.recall, s.precision).forall(x => x >= 0 && x <= 1))
    val n = runs.size.toDouble

    val endToEnd = Seq(
      ("setup_s", median(setupS.toSeq), "s"),
      ("reclaim_cpu_s.p50", median(runs.map(_.reclaimCpuMs / 1000.0).toSeq), "s"),
      ("srcs_per_cpu_min", n / (timedCpuS / 60.0), "1/min"),
      ("rec.mean", mean(scored.map(_.recall)), "ratio"),
      ("pre.mean", mean(scored.map(_.precision)), "ratio"),
      ("perfect_frac", scored.count(_.perfect).toDouble / math.max(1, distinct.size), "ratio"),
      ("cache_mb", cacheMb, "MB"))

    val (perLayer, selfCheck) = trace match {
      case None => (Seq.empty[(String, Double, String)], Seq.empty[Map[String, Any]])
      case Some(_) => perLayerMetrics(runs.toSeq, n, indexMs, indexJobs, indexRows,
        indexBytes, lakeBytes, rddsStart, rddsEnd, cacheMb)
    }
    val selfCheckOk = selfCheck.forall(_("ok") == true)
    val correct = failures.isEmpty && scoresSane && distinct.size == order.size && selfCheckOk

    val reported = if (args.trace) perLayer else endToEnd
    val metrics = reported.map { case (k, v, u) => k -> Map("value" -> v, "unit" -> u) }.toMap
    val tag = s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val record = Map(
      "workload" -> w.name,
      "seed" -> args.seed,
      "seconds" -> args.seconds,
      "trace" -> args.trace,
      "lake" -> Map("dir" -> lakeRoot.getName, "params" -> w.params.toMap,
        "bytes" -> lakeBytes, "index_bytes" -> indexBytes, "index_rows" -> indexRows),
      "spark_conf" -> (sc.getConf.getAll.toMap ++ spark.conf.getAll).toSeq.sortBy(_._1).toMap,
      "setup_s" -> setupS.toSeq,
      "order" -> order.map(_.name),
      "timed_s" -> timedS,
      "timed_cpu_s" -> timedCpuS,
      "reclaim_s.p50" -> median(runs.map(_.reclaimMs / 1000.0).toSeq),
      "srcs_per_min" -> n / (timedS / 60.0),
      "sources" -> runs.map(sourceRow),
      "self_check" -> selfCheck,
      "failures" -> failures,
      "end_to_end" -> endToEnd.map { case (k, v, u) => k -> Map("value" -> v, "unit" -> u) }.toMap,
      "per_layer" -> perLayer.map { case (k, v, u) => k -> Map("value" -> v, "unit" -> u) }.toMap)
    Files.writeString(new File(runsDir, s"$tag.json").toPath, Json.render(record) + "\n")
    if (args.trace)
      Files.writeString(new File(runsDir, s"$tag.spans.jsonl").toPath,
        spans.map(Json.render).mkString("", "\n", "\n"))
    failures.foreach(f => Console.err.println(s"genbench: FAILED $f"))
    if (!selfCheckOk) Console.err.println("genbench: per-layer self-check failed")
    spark.stop()
    log("done")

    Json.render(Map(
      "correct" -> correct,
      "attempted" -> math.max(1, attempted),
      "failed" -> failures.size,
      "metrics" -> metrics))
  }

  private def rebuild(spark: SparkSession, rows: Array[Row], schema: StructType): DataFrame =
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)

  /** The index a source is discovered in (on `web*`, the lake minus itself). */
  private def indexFor(w: Workloads.Workload, opened: Workloads.Opened,
                       source: SourceTable): DataFrame =
    if (w.excludeSelf) opened.index.where(col("table") =!= source.name) else opened.index

  /** One source through every method of the workload. */
  def runSource(spark: SparkSession, w: Workloads.Workload, opened: Workloads.Opened,
                source: SourceTable, trace: Option[LayerTrace],
                spans: Option[ArrayBuffer[Map[String, Any]]]): SourceRun = {
    val sc = spark.sparkContext
    val calls = ArrayBuffer[Call]()
    def call[A](name: String)(f: => A): A = {
      sc.setJobGroup(name, s"$name ${source.name}")
      val t0 = System.nanoTime()
      try f
      finally {
        val ms = nowMs(t0)
        sc.clearJobGroup()
        val (js, es) = trace.map(_.drainNew(sc)).getOrElse((Seq.empty, Seq.empty))
        calls += Call(name, ms, js, es)
      }
    }
    val repo = opened.repo
    val index = indexFor(w, opened, source)
    val failures = ArrayBuffer[String]()
    var attempted = 1
    val t0 = System.nanoTime()
    val cpu0 = cpuMs()
    val wallStart = System.currentTimeMillis()

    val genT = Try {
      val cands = call("SetSimilarity")(SetSimilarity.findCandidates(repo, index, source, spark))
      val r = call("GenT")(GenT.reclaimFromCandidates(repo, cands, source, spark))
      val rows = call("Collect")(r.reclaimed.collect())
      (cands, r, rows)
    }
    val reclaimMs = calls.map(_.ms).sum
    val reclaimCpuMs = cpuMs() - cpu0
    val out = genT match {
      case Failure(e) => failures += s"Gen-T threw ${e.getClass.getSimpleName}: ${e.getMessage}"; None
      case Success((cands, r, rows)) =>
        if (!r.reclaimed.columns.sameElements(source.df.columns)) {
          failures += s"Gen-T columns ${r.reclaimed.columns.mkString(",")} differ from the source's"
          None
        } else Some((cands, r, call("Metrics")(Metrics.all(rebuild(spark, rows, r.reclaimed.schema), source))))
    }

    val baselineScores = out.toSeq.flatMap { case (cands, _, _) =>
      w.baselines.map { b =>
        attempted += 1
        val res = Try(call(b) {
          val inputs = cands.map(c => SetSimilarity.renamed(repo, c))
          val df = b match {
            case "Alite" => Alite.run(inputs)
            case "AlitePs" => Alite.runPs(inputs, source)
            case "AutoPipelineStar" => AutoPipelineStar.run(inputs, source, spark)
          }
          df.map(d => (d.collect(), d.schema))
        })
        b -> (res match {
          case Failure(e) => failures += s"$b threw ${e.getClass.getSimpleName}: ${e.getMessage}"; None
          case Success(None) => None
          case Success(Some((rows, schema))) =>
            Some(call("Metrics")(Metrics.all(rebuild(spark, rows, schema), source)))
        })
      }
    }.toMap

    log(f"${source.name} reclaim ${reclaimMs / 1000}%.2f s (cpu ${reclaimCpuMs / 1000}%.2f s), " +
      f"total ${nowMs(t0) / 1000}%.2f s")
    val run = SourceRun(source.name, opened.classes.getOrElse(source.name, "?"), calls.toSeq,
      nowMs(t0), reclaimMs, reclaimCpuMs,
      out.map(_._1.size).getOrElse(0), out.map(_._2.originating.size).getOrElse(0),
      out.map(_._3), baselineScores, attempted, failures.toSeq)
    spans.foreach(_ ++= sourceSpans(run, wallStart))
    run
  }

  // ---------------------------------------------------------------- trace

  private def busy(js: Seq[LayerTrace.JobRec]): Double =
    LayerTrace.busyMs(js.map(j => (j.start, j.end))).toDouble

  /** Per-layer times of one source; they partition its wall time. */
  def layerTimes(r: SourceRun): Seq[(String, Double)] = {
    val genTJobs = r.jobs(_.group == "GenT")
    val inner = genTJobs.filter(j => LayerTrace.GenTLayers.contains(j.layer))
    Seq(
      "SetSimilarity" -> r.wall("SetSimilarity"),
      "Expand" -> busy(genTJobs.filter(_.layer == "Expand")),
      "MatrixTraversal" -> busy(genTJobs.filter(_.layer == "MatrixTraversal")),
      "Integration" -> busy(genTJobs.filter(_.layer == "Integration")),
      "GenT.driver" -> (r.wall("GenT") - busy(inner)),
      "Collect" -> r.wall("Collect"),
      "Metrics" -> r.wall("Metrics"),
      "Alite" -> r.wall("Alite"),
      "AlitePs" -> r.wall("AlitePs"),
      "AutoPipelineStar" -> r.wall("AutoPipelineStar"))
  }

  private def sourceRow(r: SourceRun): Map[String, Any] = Map(
    "source" -> r.name,
    "class" -> r.cls,
    "candidates" -> r.candidates,
    "originating" -> r.originating,
    "rec" -> r.scores.map(_.recall),
    "pre" -> r.scores.map(_.precision),
    "eis" -> r.scores.map(_.eis),
    "perfect" -> r.scores.map(_.perfect),
    "reclaim_ms" -> r.reclaimMs,
    "reclaim_cpu_ms" -> r.reclaimCpuMs,
    "wall_ms" -> r.wallMs,
    "call_ms" -> r.calls.groupBy(_.name).map { case (k, cs) => k -> cs.map(_.ms).sum },
    "layer_ms" -> (if (r.calls.exists(_.jobs.nonEmpty)) layerTimes(r).toMap else Map.empty),
    "jobs" -> r.calls.flatMap(_.jobs).groupBy(_.layer).map { case (k, js) => k -> js.size },
    "baselines" -> r.baselineScores.map { case (b, s) =>
      b -> s.map(x => Map("rec" -> x.recall, "pre" -> x.precision)) },
    "failures" -> r.failures)

  private def sourceSpans(r: SourceRun, wallStart: Long): Seq[Map[String, Any]] = {
    val srcId = s"${r.name}@$wallStart"
    val src = Map("id" -> srcId, "parent" -> None, "kind" -> "source", "name" -> r.name,
      "start_ms" -> wallStart, "dur_ms" -> r.wallMs, "class" -> r.cls)
    val calls = r.calls.zipWithIndex.flatMap { case (c, ci) =>
      val callId = s"$srcId/$ci.${c.name}"
      Map("id" -> callId, "parent" -> srcId, "kind" -> "call", "name" -> c.name,
        "dur_ms" -> c.ms, "jobs" -> c.jobs.size) +:
        c.execs.map { e =>
          val js = c.jobs.filter(_.execId == e.id)
          Map("id" -> s"$callId/sql${e.id}", "parent" -> callId, "kind" -> "sql",
            "name" -> e.layer, "start_ms" -> e.start, "dur_ms" -> (e.end - e.start),
            "jobs" -> js.size, "busy_ms" -> busy(js))
        }
    }
    src +: calls
  }

  private def perLayerMetrics(
      runs: Seq[SourceRun], n: Double, indexMs: Double, indexJobs: Int, indexRows: Long,
      indexBytes: Long, lakeBytes: Long, rddsStart: Int, rddsEnd: Int,
      cacheMb: Double): (Seq[(String, Double, String)], Seq[Map[String, Any]]) = {
    def per(x: Double) = x / math.max(1.0, n)
    def jobs(p: LayerTrace.JobRec => Boolean) = runs.flatMap(_.jobs(p))
    def execs(layer: String) = runs.flatMap(_.calls.flatMap(_.execs)).count(_.layer == layer)
    def busyPer(p: LayerTrace.JobRec => Boolean) = per(runs.map(r => busy(r.jobs(p))).sum)
    def wallPer(call: String) = per(runs.map(_.wall(call)).sum)
    val cands = runs.map(_.candidates).sum.toDouble
    val orig = runs.map(_.originating).sum.toDouble
    val allJobs = jobs(_ => true)
    val ss = jobs(_.group == "SetSimilarity")
    def layer(l: String) = (j: LayerTrace.JobRec) => j.group == "GenT" && j.layer == l
    val timeouts = runs.map(_.baselineScores.count(_._2.isEmpty)).sum
    val reclaimP50 = median(runs.map(_.reclaimMs / 1000.0))

    val checks = runs.map { r =>
      val sum = layerTimes(r).map(_._2).sum
      val gap = math.abs(sum - r.wallMs) / math.max(1e-9, r.wallMs)
      Map("source" -> r.name, "wall_ms" -> r.wallMs, "layer_sum_ms" -> sum,
        "gap" -> gap, "ok" -> (gap <= 0.05))
    }
    val ms = "ms"; val cnt = "count"
    val metrics = Seq(
      ("LakeIndex.wall_ms", indexMs, ms),
      ("LakeIndex.jobs", indexJobs.toDouble, cnt),
      ("LakeIndex.rows", indexRows.toDouble, cnt),
      ("LakeIndex.bytes_per_lake_byte", indexBytes.toDouble / math.max(1L, lakeBytes), "ratio"),
      ("TableRepo.read_jobs", per(jobs(_.layer == "TableRepo").size), cnt),
      ("TableRepo.busy_ms", busyPer(_.layer == "TableRepo"), ms),
      ("SetSimilarity.wall_ms", wallPer("SetSimilarity"), ms),
      ("SetSimilarity.busy_ms", busyPer(_.group == "SetSimilarity"), ms),
      ("SetSimilarity.jobs", per(ss.size), cnt),
      ("SetSimilarity.sql_execs", per(execs("SetSimilarity")), cnt),
      ("SetSimilarity.tasks", per(ss.map(_.tasks).sum), cnt),
      ("SetSimilarity.rows_read", per(ss.map(_.rowsRead).sum), cnt),
      ("SetSimilarity.candidates", per(cands), cnt),
      ("SetSimilarity.jobs_per_candidate", ss.size / math.max(1.0, cands), "ratio"),
      ("Expand.busy_ms", busyPer(layer("Expand")), ms),
      ("Expand.jobs", per(jobs(layer("Expand")).size), cnt),
      ("Expand.sql_execs", per(execs("Expand")), cnt),
      ("MatrixTraversal.busy_ms", busyPer(layer("MatrixTraversal")), ms),
      ("MatrixTraversal.jobs", per(jobs(layer("MatrixTraversal")).size), cnt),
      ("MatrixTraversal.rows_read", per(jobs(layer("MatrixTraversal")).map(_.rowsRead).sum), cnt),
      ("Integration.busy_ms", busyPer(layer("Integration")), ms),
      ("Integration.jobs", per(jobs(layer("Integration")).size), cnt),
      ("Integration.sql_execs", per(execs("Integration")), cnt),
      ("Integration.jobs_per_orig", jobs(layer("Integration")).size / math.max(1.0, orig), "ratio"),
      ("GenT.wall_ms", wallPer("GenT"), ms),
      ("GenT.driver_ms", per(runs.map(r => layerTimes(r).toMap.apply("GenT.driver")).sum), ms),
      ("GenT.originating", per(orig), cnt),
      ("GenT.orig_per_candidate", orig / math.max(1.0, cands), "ratio"),
      ("Collect.wall_ms", wallPer("Collect"), ms),
      ("Metrics.wall_ms", wallPer("Metrics"), ms),
      ("Metrics.busy_ms", busyPer(_.group == "Metrics"), ms),
      ("Metrics.jobs", per(jobs(_.group == "Metrics").size), cnt),
      ("Alite.wall_ms", wallPer("Alite"), ms),
      ("AlitePs.wall_ms", wallPer("AlitePs"), ms),
      ("AutoPipelineStar.wall_ms", wallPer("AutoPipelineStar"), ms),
      ("baselines.timeouts", per(timeouts), cnt),
      ("cache.rdds_end", rddsEnd.toDouble, cnt),
      ("cache.rdds_per_src", per(rddsEnd - rddsStart), cnt),
      ("cache.storage_mb_end", cacheMb, "MB"),
      ("spark.jobs_per_src", per(allJobs.size), cnt),
      ("spark.tasks_per_job", allJobs.map(_.tasks).sum / math.max(1.0, allJobs.size), "ratio"),
      ("trace.reclaim_s.p50", reclaimP50, "s"),
      ("trace.reclaim_cpu_s.p50", median(runs.map(_.reclaimCpuMs / 1000.0)), "s"),
      ("trace.layer_sum_gap_max", checks.map(_("gap").asInstanceOf[Double]).max, "ratio"))
    (metrics, checks)
  }
}
