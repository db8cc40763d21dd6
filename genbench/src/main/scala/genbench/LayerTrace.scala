package genbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

import scala.collection.mutable

/** Attributes Spark jobs to Gen-T's layers from outside the program.
  *
  * The benchmark wraps every public call in a job group named after the
  * call (`SetSimilarity`, `GenT`, `Collect`, `Metrics`, a baseline, or
  * `LakeIndex`). Inside the `GenT` group the layer comes from the call
  * stack Spark records on each `SparkListenerSQLExecutionStart`: most
  * Gen-T jobs are AQE stage jobs whose own call site is a
  * `CompletableFuture`, but their SQL execution remembers which object
  * started it. Jobs that run outside any SQL execution and were started by
  * `TableRepo.read` are the Parquet schema reads of the lake.
  */
final class LayerTrace extends SparkListener {
  import LayerTrace._

  private val jobs = mutable.ArrayBuffer[JobRec]()
  private val jobById = mutable.HashMap[Int, JobRec]()
  private val stageJob = mutable.HashMap[Int, Int]()
  private val execs = mutable.ArrayBuffer[ExecRec]()
  private val execById = mutable.HashMap[Long, ExecRec]()
  private var jobCursor = 0
  private var execCursor = 0

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized {
      val r = ExecRec(e.executionId, stackLayer(e.jobGroupId.getOrElse(""), e.details),
        e.time, e.time)
      execs += r
      execById(e.executionId) = r
    }
    case e: SparkListenerSQLExecutionEnd => synchronized {
      execById.get(e.executionId).foreach(_.end = e.time)
    }
    case _ =>
  }

  override def onJobStart(j: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String): Option[String] = Option(j.properties).flatMap(p => Option(p.getProperty(k)))
    val group = prop("spark.jobGroup.id").getOrElse("")
    val exec = prop("spark.sql.execution.id").map(_.toLong)
    val layer = exec.flatMap(execById.get) match {
      case Some(e) => e.layer
      case None if group == "LakeIndex" => "LakeIndex"
      case None if prop("callSite.long").exists(_.contains("repro.lake.TableRepo.read")) => "TableRepo"
      case None => if (group.isEmpty) "unattributed" else group
    }
    val r = JobRec(j.jobId, group, layer, exec.getOrElse(-1L), j.time, j.time)
    jobs += r
    jobById(j.jobId) = r
    j.stageIds.foreach(stageJob(_) = j.jobId)
  }

  override def onJobEnd(j: SparkListenerJobEnd): Unit = synchronized {
    jobById.remove(j.jobId).foreach(_.end = j.time)
  }

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(t.stageId).flatMap(jobById.get).foreach { r =>
      r.tasks += 1
      if (t.taskMetrics != null) r.rowsRead += t.taskMetrics.inputMetrics.recordsRead
    }
  }

  /** Jobs and SQL executions started since the previous call, once every
    * event posted so far has been delivered.
    */
  def drainNew(sc: SparkContext): (Seq[JobRec], Seq[ExecRec]) = {
    org.apache.spark.ListenerBusDrain(sc)
    synchronized {
      val js = jobs.slice(jobCursor, jobs.size).toSeq
      val es = execs.slice(execCursor, execs.size).toSeq
      jobCursor = jobs.size
      execCursor = execs.size
      (js, es)
    }
  }
}

object LayerTrace {

  final case class JobRec(id: Int, group: String, layer: String, execId: Long,
                          start: Long, var end: Long) {
    var tasks: Int = 0
    var rowsRead: Long = 0L
  }

  final case class ExecRec(id: Long, layer: String, start: Long, var end: Long)

  /** Gen-T's inner layers, recognised on the SQL-execution call stack. */
  val GenTLayers: Seq[String] = Seq("Expand", "MatrixTraversal", "Integration")

  def stackLayer(group: String, stack: String): String =
    if (group != "GenT") group
    else if (stack.contains("repro.core.Integration$")) "Integration"
    else if (stack.contains("repro.discovery.MatrixTraversal$")) "MatrixTraversal"
    else if (stack.contains("repro.discovery.Expand$") || stack.contains("expandWeights")) "Expand"
    else "GenT"

  /** Length of the union of `[start, end]` intervals (overlapping AQE
    * stage jobs are counted once).
    */
  def busyMs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e0) =>
      val e = math.max(s, e0)
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }
}
