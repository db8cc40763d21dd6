package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Full Disjunction (Galindo-Legaria) — the integration substrate of the
  * ALITE baseline.
  *
  * FD maximally combines tuples across tables: outer union everything,
  * close the set under pairwise complementation (two tuples merge iff
  * they agree on all attributes where both are non-null and share at
  * least one non-null value), then drop subsumed tuples.
  *
  * Unlike Gen-T's operators, FD has no source key to group by, so the
  * closure is inherently pairwise over the whole instance. We run it on
  * the driver over an inverted (column, value) bucket index so only
  * tuples sharing some non-null value are ever compared, and bound the
  * work with `rowCap`: exceeding it aborts with `None`, which the harness
  * reports as a timeout — reproducing the paper's observation that ALITE
  * (exponential-time FD) times out on the larger benchmarks.
  */
object Fd {

  final case class Config(rowCap: Int = 60000, maxPairChecks: Long = 40_000_000L)

  /** FD over in-memory rows. Returns None on cap exhaustion ("timeout"). */
  def closure(rows: Seq[Seq[String]], cfg: Config = Config()): Option[Seq[Seq[String]]] = {
    if (rows.size > cfg.rowCap) return None
    val all = mutable.LinkedHashSet[Seq[String]](rows.distinct: _*)
    val buckets = mutable.HashMap[(Int, String), mutable.ArrayBuffer[Seq[String]]]()
    def index(r: Seq[String]): Unit =
      r.indices.foreach { i =>
        if (r(i) != null)
          buckets.getOrElseUpdate((i, r(i)), mutable.ArrayBuffer.empty) += r
      }
    all.foreach(index)

    var checks = 0L
    val queue = mutable.Queue[Seq[String]](all.toSeq: _*)
    while (queue.nonEmpty) {
      val r = queue.dequeue()
      if (all.contains(r)) {
        val cands = mutable.LinkedHashSet[Seq[String]]()
        r.indices.foreach { i =>
          if (r(i) != null) buckets.get((i, r(i))).foreach(b => cands ++= b)
        }
        cands.foreach { c =>
          checks += 1
          if (checks > cfg.maxPairChecks) return None
          if (!(c eq r) && c != r && all.contains(c) && Operators.complement(r, c)) {
            val m = Operators.merge(r, c)
            if (!all.contains(m)) {
              if (all.size >= cfg.rowCap) return None
              all += m; index(m); queue.enqueue(m)
            }
          }
        }
      }
    }

    // β: drop subsumed tuples, again via buckets (a subsumed tuple shares
    // every one of its non-null values with its subsumer).
    val result = all.toSeq
    val kept = result.filterNot { r =>
      val cands = mutable.LinkedHashSet[Seq[String]]()
      r.indices.foreach(i => if (r(i) != null) buckets.get((i, r(i))).foreach(cands ++= _))
      cands.exists(c => c != r && all.contains(c) && Operators.subsumes(c, r))
    }
    Some(kept)
  }

  /** FD over DataFrames: outer union all, collect, close, rebuild.
    * Returns None on timeout (cap exceeded).
    */
  def fullDisjunction(dfs: Seq[DataFrame], cfg: Config = Config()): Option[DataFrame] = {
    require(dfs.nonEmpty)
    val unioned = Operators.outerUnionAll(dfs)
    if (unioned.limit(cfg.rowCap + 1).count() > cfg.rowCap) return None
    closure(Operators.collectRows(unioned), cfg).map { closed =>
      Operators.localDf(unioned.sparkSession, unioned.columns.toIndexedSeq, closed)
    }
  }
}
