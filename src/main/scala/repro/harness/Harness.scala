package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.{Alite, AutoPipelineStar, Ver}
import repro.core.{GenT, Metrics, Operators}
import repro.discovery.SetSimilarity
import repro.lake.{SourceTable, TableRepo}

/** Experiment harness: runs every method of the paper's evaluation over a
  * benchmark's source tables and aggregates the metrics into rows shaped
  * like the paper's Tables II–IV.
  */
object Harness {

  /** A method row of the paper's tables. `algo` ∈
    * {gen-t, alite, alite-ps, autopipeline, ver}; `intSet` = the
    * "w/ int. set" variant (input is the known integrating set instead of
    * the Set Similarity candidates).
    */
  final case class MethodSpec(label: String, algo: String, intSet: Boolean)

  /** Table II's methods (larger TP-TR benchmarks). */
  val TableIIMethods: Seq[MethodSpec] = Seq(
    MethodSpec("ALITE", "alite", intSet = false),
    MethodSpec("ALITE w/ int. set", "alite", intSet = true),
    MethodSpec("ALITE-PS", "alite-ps", intSet = false),
    MethodSpec("ALITE-PS w/ int. set", "alite-ps", intSet = true),
    MethodSpec("Gen-T", "gen-t", intSet = false),
  )

  /** Table III's methods (TP-TR Small adds Auto-Pipeline* and Ver). */
  val TableIIIMethods: Seq[MethodSpec] = Seq(
    MethodSpec("ALITE", "alite", intSet = false),
    MethodSpec("ALITE w/ int. set", "alite", intSet = true),
    MethodSpec("ALITE-PS", "alite-ps", intSet = false),
    MethodSpec("ALITE-PS w/ int. set", "alite-ps", intSet = true),
    MethodSpec("Auto-Pipeline*", "autopipeline", intSet = false),
    MethodSpec("Auto-Pipeline* w/ int. set", "autopipeline", intSet = true),
    MethodSpec("Ver w/ int. set", "ver", intSet = true),
    MethodSpec("Gen-T", "gen-t", intSet = false),
  )

  /** Table IV's methods (web benchmark). */
  val TableIVMethods: Seq[MethodSpec] = Seq(
    MethodSpec("ALITE", "alite", intSet = false),
    MethodSpec("ALITE-PS", "alite-ps", intSet = false),
    MethodSpec("Auto-Pipeline*", "autopipeline", intSet = false),
    MethodSpec("Gen-T", "gen-t", intSet = false),
  )

  final case class RunConfig(excludeSelf: Boolean = false)

  final case class SourceRun(
      source: String,
      method: String,
      scores: Option[Metrics.Scores],
      millis: Long)

  /** Rename the integrating-set tables against the source via a
    * Set-Similarity pass restricted to exactly those tables (low τ, no
    * candidate pruning) — the implicit schema matching every baseline
    * needs before integration.
    */
  def intSetInputs(repo: TableRepo, index: DataFrame, names: Seq[String],
                   source: SourceTable, spark: SparkSession): Seq[DataFrame] = {
    val restricted = index.where(col("table").isin(names: _*))
    // Default τ: a lower threshold would admit (and then fail to repair)
    // crossed column mappings inside the integrating set.
    val cfg = SetSimilarity.Config(topK = names.size)
    SetSimilarity.findCandidates(repo, restricted, source, spark, cfg)
      .map(c => SetSimilarity.renamed(repo, c))
  }

  private def time[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  /** Run all `methods` for every source of the benchmark. */
  def runAll(
      spark: SparkSession,
      repo: TableRepo,
      index: DataFrame,
      sources: Seq[SourceTable],
      intSets: Map[String, Seq[String]],
      methods: Seq[MethodSpec],
      cfg: RunConfig = RunConfig(),
      verbose: Boolean = true): Seq[SourceRun] = {

    sources.flatMap { source =>
      val idx =
        if (cfg.excludeSelf) index.where(col("table") =!= source.name) else index

      // One Set Similarity pass shared by every non-int-set method.
      val (candidates, discMillis) = time {
        SetSimilarity.findCandidates(repo, idx, source, spark)
      }
      lazy val candidateDfs =
        candidates.map(c => SetSimilarity.renamed(repo, c))
      lazy val intSetDfs = intSets.get(source.name) match {
        case Some(names) if names.nonEmpty => intSetInputs(repo, idx, names, source, spark)
        case _ => Seq.empty
      }

      methods.map { m =>
        val inputs = if (m.intSet) intSetDfs else candidateDfs
        val (outOpt, ms) = time {
          m.algo match {
            case "gen-t" =>
              val r = GenT.reclaimFromCandidates(repo, candidates, source, spark)
              Some(r.reclaimed)
            case "alite" => Alite.run(inputs)
            case "alite-ps" => Alite.runPs(inputs, source)
            case "autopipeline" => AutoPipelineStar.run(inputs, source, spark)
            case "ver" => Ver.run(inputs, source, spark)
            case other => sys.error(s"unknown algo $other")
          }
        }
        val totalMs = if (m.intSet) ms else ms + discMillis
        val scores = outOpt.map(out => Metrics.all(out, source))
        if (verbose) {
          val s = scores.map(s => f"rec=${s.recall}%.3f pre=${s.precision}%.3f")
            .getOrElse("TIMEOUT")
          Console.err.println(f"[harness] ${source.name}%-28s ${m.label}%-26s $s (${totalMs}ms)")
        }
        SourceRun(source.name, m.label, scores, totalMs)
      }
    }
  }

  /** `kl` averages the completed runs whose D_KL is defined; `noKey`
    * counts the completed runs whose output shares no key with the source.
    */
  final case class Agg(
      method: String,
      completed: Int,
      timeouts: Int,
      perfect: Int,
      rec: Double, pre: Double, instDiv: Double, kl: Double, noKey: Int,
      avgMillis: Double, avgSizeRatio: Double)

  def aggregate(runs: Seq[SourceRun]): Seq[Agg] = {
    def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
    runs.groupBy(_.method).toSeq.sortBy(_._1).map { case (m, rs) =>
      val ok = rs.flatMap(_.scores)
      def avg(f: Metrics.Scores => Double): Double = mean(ok.map(f))
      Agg(m, ok.size, rs.size - ok.size, ok.count(_.perfect),
        avg(_.recall), avg(_.precision), avg(_.instDiv), mean(ok.flatMap(_.kl)),
        ok.count(_.kl.isEmpty),
        rs.map(_.millis.toDouble).sum / math.max(1, rs.size),
        avg(_.sizeRatio))
    }
  }

  /** Format aggregates as a paper-style table (one row per method). */
  def format(title: String, aggs: Seq[Agg], order: Seq[String]): String = {
    val hdr = f"${"Method"}%-28s ${"Rec"}%7s ${"Pre"}%7s ${"Inst-Div"}%9s ${"D_KL"}%9s " +
      f"${"#nokey"}%6s ${"#perf"}%6s ${"#to"}%4s ${"avg_ms"}%9s ${"out/src"}%8s"
    val rows = order.flatMap(m => aggs.find(_.method == m)).map { a =>
      def d(x: Double): String = if (x.isNaN) "   —" else f"$x%7.3f"
      f"${a.method}%-28s ${d(a.rec)}%7s ${d(a.pre)}%7s ${d(a.instDiv)}%9s " +
        (if (a.kl.isNaN) f"${"—"}%9s" else f"${a.kl}%9.3f") +
        f" ${a.noKey}%6d ${a.perfect}%6d ${a.timeouts}%4d ${a.avgMillis}%9.0f " +
        (if (a.avgSizeRatio.isNaN) f"${"—"}%8s" else f"${a.avgSizeRatio}%8.1f")
    }
    (s"=== $title ===" +: hdr +: rows).mkString("\n")
  }
}
