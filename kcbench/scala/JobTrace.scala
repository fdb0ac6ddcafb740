// The listener lives under org.apache.spark only to reach the driver's
// listener bus (private[spark]), so a traced call can wait until every event
// it caused has been delivered before its totals are read.
package org.apache.spark.kcbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark job and task totals of one job group. Times are in milliseconds as
  * Spark reports them, except `cpuNs`.
  */
final class GroupTotals {
  var jobs = 0L
  var jobMs = 0L
  var tasks = 0L
  var launchMs = 0L
  var deserMs = 0L
  var runMs = 0L
  var cpuNs = 0L
  var resultBytes = 0L
  var shuffleBytes = 0L
  val stageRuns = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]

  /** Mean over stages with at least two tasks of max task run / mean task
    * run; 1.0 when no stage qualifies.
    */
  def skew: Double = {
    val ratios = stageRuns.values.iterator
      .filter(r => r.length >= 2 && r.sum > 0)
      .map(r => r.max.toDouble / (r.sum.toDouble / r.length))
      .toSeq
    if (ratios.isEmpty) 1.0 else ratios.sum / ratios.length
  }
}

/** Records job and task metrics per job group. The benchmark sets a job group
  * around every call it wants attributed; jobs outside a group are ignored.
  */
final class JobTrace extends SparkListener {
  private val groups = mutable.HashMap.empty[String, GroupTotals]
  private val jobStart = mutable.HashMap.empty[Int, (String, Long)]
  private val stageGroup = mutable.HashMap.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (g != null) {
      jobStart(e.jobId) = (g, e.time)
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (g, t0) =>
      val t = groups.getOrElseUpdate(g, new GroupTotals)
      t.jobs += 1
      t.jobMs += e.time - t0
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    stageGroup.get(e.stageId).filter(_ => m != null).foreach { g =>
      val t = groups.getOrElseUpdate(g, new GroupTotals)
      t.tasks += 1
      t.launchMs += e.taskInfo.duration - m.executorRunTime - m.executorDeserializeTime -
        m.resultSerializationTime
      t.deserMs += m.executorDeserializeTime
      t.runMs += m.executorRunTime
      t.cpuNs += m.executorCpuTime
      t.resultBytes += m.resultSize
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      t.stageRuns.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty[Long]) += m.executorRunTime
    }
  }

  /** Waits for every posted event, then removes and returns the group's
    * totals (empty totals if the group ran no job).
    */
  def take(sc: SparkContext, group: String): GroupTotals = {
    sc.listenerBus.waitUntilEmpty()
    synchronized(groups.remove(group).getOrElse(new GroupTotals))
  }
}
