package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._

/** Spark work attributed to one span. */
final case class SparkCounts(jobs: Long, stages: Long, shuffleBytes: Long)

/** One timed call into a layer, recorded from outside the program.
  *
  * @param parent id of the enclosing span, 0 for a root
  * @param task   id of the platform task the call belongs to ("" for set-up)
  */
final case class Span(id: Long, parent: Long, name: String, task: String,
                      startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Counts the jobs, stages and shuffle bytes Spark runs on behalf of each
  * span. The open span's id travels as a thread-local job property, so
  * attribution does not depend on when the listener bus delivers events.
  */
final class SparkCounter extends SparkListener {
  import SparkCounter.SpanKey
  private val jobs    = new ConcurrentHashMap[Long, AtomicLong]()
  private val stages  = new ConcurrentHashMap[Long, AtomicLong]()
  private val shuffle = new ConcurrentHashMap[Long, AtomicLong]()
  private val stageSpan = new ConcurrentHashMap[Int, Long]()

  private def spanOf(props: java.util.Properties): Option[Long] =
    Option(props).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toLong)

  private def bump(m: ConcurrentHashMap[Long, AtomicLong], span: Long, by: Long): Unit =
    m.computeIfAbsent(span, _ => new AtomicLong()).addAndGet(by)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    spanOf(e.properties).foreach(bump(jobs, _, 1))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    spanOf(e.properties).foreach { s =>
      stageSpan.put(e.stageInfo.stageId, s)
      bump(stages, s, 1)
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (s <- Option(stageSpan.get(e.stageId)); m <- Option(e.taskMetrics))
      bump(shuffle, s, m.shuffleWriteMetrics.bytesWritten)

  def counts(span: Long): SparkCounts = {
    def get(m: ConcurrentHashMap[Long, AtomicLong]) = Option(m.get(span)).map(_.get).getOrElse(0L)
    SparkCounts(get(jobs), get(stages), get(shuffle))
  }
}

object SparkCounter {
  val SpanKey = "perfbench.span"
}

/** Nested spans on the calling thread, with Spark work counted per span.
  * Spans are kept in memory and read out when the run ends.
  */
final class Tracer(sc: SparkContext) {
  private val counter = new SparkCounter
  sc.addSparkListener(counter)
  private val recorded = ArrayBuffer.empty[Span]
  private var stack = List.empty[Long]
  private var nextId = 0L

  def span[A](name: String, task: String = "")(f: => A): A = {
    nextId += 1
    val id = nextId
    val parent = stack.headOption.getOrElse(0L)
    stack = id :: stack
    sc.setLocalProperty(SparkCounter.SpanKey, id.toString)
    val t0 = System.nanoTime()
    try {
      val a = f
      recorded += Span(id, parent, name, task, t0, System.nanoTime())
      a
    } finally {
      stack = stack.tail
      sc.setLocalProperty(SparkCounter.SpanKey, stack.headOption.map(_.toString).orNull)
    }
  }

  /** All spans, once the listener bus has delivered every pending event. */
  def spans: Seq[Span] = {
    ListenerBusAccess.drain(sc)
    recorded.toSeq
  }

  def counts(s: Span): SparkCounts = counter.counts(s.id)

  /** Span duration minus the time its direct children cover. */
  def selfMs(s: Span, all: Seq[Span]): Double =
    s.ms - all.filter(_.parent == s.id).map(_.ms).sum
}
