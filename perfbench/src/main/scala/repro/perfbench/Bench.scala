package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession
import repro.core.Ranking
import repro.platform._

/** One benchmark run's settings. `smoke` shrinks the workload to its
  * smallest input and a single task.
  */
final case class RunConfig(workload: String, seed: Long, seconds: Double, trace: Boolean,
                           work: Path, smoke: Boolean = false)

/** A run's outcome: the metrics for the result line, and the full record. */
final case class RunResult(attempted: Int, failed: Int,
                           metrics: ListMap[String, (Double, String)],
                           record: ListMap[String, Any]) {
  def correct: Boolean = failed == 0
}

final case class HeapUse(retainedMb: Double, peakMb: Double, gcS: Double)

/** Driver heap in use after full collections, and GC time. Young
  * collections are not sampled: what they leave includes old-generation
  * garbage, so their figures depend on when collections happen to run.
  */
final class GcMonitor {
  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  @volatile private var active = false
  private val peakBytes = new AtomicLong()
  private var gcMsAtStart = 0L

  private def gcMs: Long = beans.map(_.getCollectionTime).filter(_ > 0).sum

  private val onGc: NotificationListener = (n, _) =>
    if (active && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      if (info.getGcAction.contains("major")) {
        val used = info.getGcInfo.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
        peakBytes.accumulateAndGet(used, math.max)
      }
    }
  beans.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(onGc, null, null))

  def start(): Unit = { peakBytes.set(0); gcMsAtStart = gcMs; active = true }

  /** Stops watching after one last full collection. `retainedMb` is what
    * the window left live. `peakMb` also covers full collections inside
    * the window, which run only when the JVM needs them, so it is not the
    * true peak: a driver-side structure freed before the next full
    * collection never shows. `gcS` is GC time spent in the window.
    */
  def stop(): HeapUse = {
    val gcS = (gcMs - gcMsAtStart) / 1000.0
    System.gc()
    val live = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    active = false
    HeapUse(live / 1048576.0, math.max(peakBytes.get, live) / 1048576.0, gcS)
  }
}

/** One task as the client saw it through `Scheduler.status`. */
final class TaskRun(val task: Task, val submitNs: Long) {
  @volatile var runNs: Long = 0L
  @volatile var doneNs: Long = 0L
  @volatile var state: TaskState = TaskState.Queued
  @volatile var reads: Seq[Double] = Seq.empty
  @volatile var resubmitHit: Boolean = false
  def queueWaitS: Double = (runNs - submitNs) / 1e9
  def runS: Double = (doneNs - runNs) / 1e9
  def latencyS: Double = (doneNs - submitNs) / 1e9
  def done: Boolean = state == TaskState.Done
  def terminal: Boolean = state == TaskState.Done || state.isInstanceOf[TaskState.Failed]
}

object Bench {

  private val PollMs = 1L
  private val Reps = 3
  /** Permalink reads per stored result after its re-submit. The first read
    * after a task is the slowest; later reads keep the median from resting
    * on it.
    */
  private val Reads = 11

  private def session(work: Path): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors()}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, secondsSince(t0))
  }

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  /** The highest of p50/p75/p90/p95/p99 with at least ten samples above
    * it, by nearest rank; the maximum when there are fewer than twenty
    * samples. Returns (value, percentile, samples above).
    */
  private def tail(xs: Seq[Double]): (Double, Int, Int) = {
    val s = xs.sorted
    val n = s.size
    Seq(99, 95, 90, 75, 50).map { p =>
      val idx = math.max(0, math.ceil(p / 100.0 * n).toInt - 1)
      (p, idx)
    }.find { case (_, idx) => n - 1 - idx >= 10 } match {
      case Some((p, idx)) => (s(idx), p, n - 1 - idx)
      case None           => (if (n == 0) 0.0 else s.last, 100, 0)
    }
  }

  def run(cfg: RunConfig): RunResult = {
    Files.createDirectories(cfg.work)
    val (spark, sessionS) = timed(session(cfg.work))
    val tracer = if (cfg.trace) Some(new Tracer(spark.sparkContext)) else None
    try runIn(spark, cfg, sessionS, tracer)
    finally spark.stop()
  }

  private def runIn(spark: SparkSession, cfg: RunConfig, sessionS: Double,
                    tracer: Option[Tracer]): RunResult = {
    def traced[A](name: String)(f: => A): A = tracer.fold(f)(_.span(name)(f))

    // ---- set-up: generate once, then write and upload `Reps` times ----
    val (inputs, generateS) = timed(Workloads.prepare(cfg.workload, spark, cfg.seed, cfg.smoke))
    val reps = (1 to Reps).map { rep =>
      val dir = Files.createDirectories(cfg.work.resolve(s"rep$rep"))
      timed {
        val store = new Datastore(dir.resolve("store"), spark)
        for (f <- inputs.files) {
          val file = dir.resolve(s"${f.name}.${f.ext}")
          Files.write(file, f.lines.asJava, UTF_8)
          traced("platform.Datastore.upload")(store.uploadDataset(f.name, file))
        }
        store
      }
    }
    val store = reps.last._1
    val uploadS = median(reps.map(_._2))
    val scheduler = new Scheduler(store, inputs.workers)
    def read(id: String): (Seq[(Long, Double)], Double) =
      timed(Ranking.topK(store.readResult(id).get, Workloads.TopK))
    // The warm-up result is read as often as a measured one, so the read
    // path is warm in the window too.
    val (warmState, warmupS) = timed {
      val state = scheduler.await(scheduler.submit(inputs.warmup))
      if (state == TaskState.Done) (0 to Reads).foreach(_ => read(inputs.warmup.id))
      state
    }
    require(warmState == TaskState.Done, s"warm-up task failed: $warmState")
    val setupS = sessionS + generateS + uploadS + warmupS

    // ---- timed window: rounds until `seconds` have passed ----
    val gc = new GcMonitor
    val reader = Executors.newSingleThreadExecutor()
    def postProcess(r: TaskRun): Unit = if (r.done) {
      val (before, t0) = read(r.task.id)
      scheduler.submit(r.task)
      val stillDone = scheduler.status(r.task.id).contains(TaskState.Done)
      val after = Seq.fill(Reads)(read(r.task.id))
      r.resubmitHit = stillDone && after.forall(_._1 == before)
      r.reads = (t0 +: after.map(_._2)).map(_ * 1e3)
    }
    def poll(pending: Seq[TaskRun], onTerminal: TaskRun => Unit): Unit = {
      var open = pending
      while (open.nonEmpty) {
        for (r <- open) {
          val s = scheduler.status(r.task.id).get
          val now = System.nanoTime()
          if (s != TaskState.Queued && r.runNs == 0L) r.runNs = now
          if (s == TaskState.Done || s.isInstanceOf[TaskState.Failed]) {
            r.doneNs = now; r.state = s; onTerminal(r)
          }
        }
        open = open.filterNot(_.terminal)
        if (open.nonEmpty) Thread.sleep(PollMs)
      }
    }

    val runs = Vector.newBuilder[TaskRun]
    gc.start()
    val windowStart = System.nanoTime()
    var round = 0
    var more = true
    while (more) {
      val tasks = if (cfg.smoke) inputs.round(round).take(1) else inputs.round(round)
      if (tasks.isEmpty) more = false
      else {
        if (inputs.asQuerySet) {
          val t0 = System.nanoTime()
          scheduler.submitAll(QuerySet(tasks.toVector))
          val rs = tasks.map(new TaskRun(_, t0))
          poll(rs, r => reader.execute(() => postProcess(r)))
          runs ++= rs
        } else {
          for (t <- tasks) {
            val r = new TaskRun(t, System.nanoTime())
            scheduler.submit(t)
            poll(Seq(r), _ => ())
            postProcess(r)
            runs += r
          }
        }
        round += 1
        more = !cfg.smoke && secondsSince(windowStart) < cfg.seconds
      }
    }
    reader.shutdown()
    reader.awaitTermination(10, TimeUnit.MINUTES)
    val heap = gc.stop()
    val all = runs.result()
    require(all.nonEmpty, s"${cfg.workload} produced no task for seed ${cfg.seed}")

    // ---- verification, outside the window ----
    val stored = all.filter(_.done).map { r =>
      r.task -> store.readResult(r.task.id).get.collect().map(x => (x.getLong(0), x.getDouble(1))).toSeq
    }.toMap
    val mismatches = stored.toSeq.flatMap { case (t, rows) => inputs.verify(t, rows).map(t -> _) }
    val done = all.filter(_.done)
    val failedTasks = all.count(r => !r.done)
    val badResubmits = done.count(!_.resubmitHit)
    val attempted = all.size + done.size
    val failed = failedTasks + mismatches.size + badResubmits

    val latencies = done.map(_.latencyS)
    val (tailS, tailP, tailBeyond) = tail(latencies)
    val reads = done.flatMap(_.reads)
    val lastDone = if (done.isEmpty) windowStart else done.map(_.doneNs).max
    val firstSubmit = if (all.isEmpty) windowStart else all.map(_.submitNs).min
    val endToEnd = ListMap(
      "setup_s"      -> (setupS, "s"),
      "tasks_per_s"  -> (done.size / math.max(1e-9, (lastDone - firstSubmit) / 1e9), "1/s"),
      "task_p50_s"   -> (median(latencies), "s"),
      "task_tail_s"  -> (tailS, "s"),
      "read_p50_ms"  -> (median(reads), "ms"),
      "heap_retained_mb" -> (heap.retainedMb, "MB"),
    )

    // ---- traced replay of each task's executor steps ----
    val replayed = tracer.map(replay(_, store, done))
    val metrics = replayed.fold(endToEnd) { rp =>
      val untracedS = done.map(_.runS).sum
      ListMap(
        "platform.Scheduler.queue_wait_p50_s" -> (median(done.map(_.queueWaitS)), "s"),
        "platform.Scheduler.run_p50_s" -> (median(done.map(_.runS)), "s"),
        "platform.Scheduler.resubmit_hit_ratio" ->
          (if (done.isEmpty) 0.0 else done.count(_.resubmitHit).toDouble / done.size, "ratio"),
      ) ++ rp.layers ++ ListMap(
        "jvm.gc_s" -> (heap.gcS, "s"),
        "jvm.heap_after_gc_peak_mb" -> (heap.peakMb, "MB"),
        "trace.overhead_ratio" -> (if (untracedS > 0) rp.executeS / untracedS else 0.0, "ratio"))
    }
    scheduler.shutdown()

    val conf = spark.conf
    val record = ListMap[String, Any](
      "workload" -> cfg.workload, "seed" -> cfg.seed, "seconds" -> cfg.seconds, "trace" -> cfg.trace,
      "env" -> ListMap(
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "spark.master" -> spark.sparkContext.master,
        "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
        "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "spark.ui.enabled" -> spark.sparkContext.getConf.get("spark.ui.enabled", "true"),
        "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
        "spark_version" -> spark.version,
        "java_version" -> System.getProperty("java.version"),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.vm.version")}",
        "scala_version" -> scala.util.Properties.versionNumberString),
      "datasets" -> inputs.files.map(f =>
        ListMap("name" -> f.name, "format" -> f.ext, "nodes" -> f.nodes, "edges" -> f.edges)),
      "setup" -> ListMap("session_s" -> sessionS, "generate_s" -> generateS,
        "write_upload_s" -> reps.map(_._2), "warmup_s" -> warmupS),
      "workers" -> inputs.workers, "rounds" -> round,
      "tasks" -> all.map { r =>
        ListMap("id" -> r.task.id, "dataset" -> r.task.dataset, "algorithm" -> r.task.algorithm,
          "params" -> r.task.params, "state" -> r.state.toString,
          "queue_wait_s" -> r.queueWaitS, "run_s" -> r.runS, "latency_s" -> r.latencyS,
          "rows" -> stored.get(r.task).map(_.size), "read_ms" -> r.reads,
          "resubmit_hit" -> r.resubmitHit,
          "mismatch" -> mismatches.find(_._1 == r.task).map(_._2))
      },
      "failed_ratio" -> failed.toDouble / math.max(1, attempted),
      "task_tail" -> ListMap("percentile" -> tailP, "samples" -> latencies.size,
                             "samples_beyond" -> tailBeyond),
      "metrics" -> metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) },
      "spans" -> replayed.map(_.spans).getOrElse(Seq.empty))
    RunResult(attempted, failed, metrics, record)
  }

  /** Per-layer metrics, span records, and the summed time of the replayed
    * executor steps.
    */
  private final case class Replay(layers: ListMap[String, (Double, String)],
                                  spans: Seq[ListMap[String, Any]], executeS: Double)

  /** Replays each completed task's executor steps sequentially through their
    * public calls, one span per call, and reduces the spans to per-layer
    * medians.
    */
  private def replay(tr: Tracer, store: Datastore, done: Seq[TaskRun]): Replay = {
    def sp[A](name: String, id: String)(f: => A): A = tr.span(name, id)(f)
    val rows = scala.collection.mutable.Map.empty[String, Long]
    for (r <- done) {
      val t = r.task
      val out = s"trace-${t.id}"
      sp("platform.PlatformExecutor.execute", t.id) {
        val g = sp("platform.Datastore.loadDataset", t.id)(store.loadDataset(t.dataset))
        val result = sp(algorithmLayer(t), t.id)(AlgorithmRegistry(t.algorithm)(g, t.params))
        sp("platform.Datastore.writeResult", t.id)(store.writeResult(out, result))
        rows(t.id) = sp("platform.PlatformExecutor.count", t.id)(result.count())
      }
      val df = sp("platform.Datastore.readResult", t.id)(store.readResult(out).get)
      sp("core.Ranking.topK", t.id)(Ranking.topK(df, Workloads.TopK))
    }
    val spans = tr.spans
    val byName = spans.groupBy(_.name).withDefaultValue(Seq.empty)
    def ms(name: String) = median(byName(name).map(_.ms))
    def jobs(name: String) = median(byName(name).map(s => tr.counts(s).jobs.toDouble))
    def rowsOf(names: String*) =
      median(names.flatMap(byName).map(s => rows.getOrElse(s.task, 0L).toDouble))
    val executes = byName("platform.PlatformExecutor.execute")
    def perTask(f: SparkCounts => Long) = median(executes.map { e =>
      spans.filter(_.parent == e.id).map(s => f(tr.counts(s))).sum.toDouble
    })
    val layers = ListMap(
      "platform.Datastore.loadDataset_ms" -> (ms("platform.Datastore.loadDataset"), "ms"),
      "platform.Datastore.loadDataset_jobs" -> (jobs("platform.Datastore.loadDataset"), "count"),
      "platform.Datastore.writeResult_ms" -> (ms("platform.Datastore.writeResult"), "ms"),
      "platform.Datastore.writeResult_rows" -> (rowsOf("platform.Datastore.writeResult"), "count"),
      "platform.Datastore.readResult_ms" -> (ms("platform.Datastore.readResult"), "ms"),
      "core.Ranking.topK_ms" -> (ms("core.Ranking.topK"), "ms"),
      "platform.Datastore.upload_ms" -> (ms("platform.Datastore.upload"), "ms"),
      "platform.PlatformExecutor.count_ms" -> (ms("platform.PlatformExecutor.count"), "ms"),
      "platform.PlatformExecutor.count_jobs" -> (jobs("platform.PlatformExecutor.count"), "count"),
      "core.CycleRank.k3_ms" -> (ms("core.CycleRank.k3"), "ms"),
      "core.CycleRank.k3_jobs" -> (jobs("core.CycleRank.k3"), "count"),
      "core.CycleRank.k5_ms" -> (ms("core.CycleRank.k5"), "ms"),
      "core.CycleRank.k5_jobs" -> (jobs("core.CycleRank.k5"), "count"),
      "core.CycleRank.rows" -> (rowsOf("core.CycleRank.k3", "core.CycleRank.k5"), "count"),
      "core.PageRank.ms" -> (ms("core.PageRank"), "ms"),
      "core.PageRank.jobs" -> (jobs("core.PageRank"), "count"),
      "core.CheiRank.ms" -> (ms("core.CheiRank"), "ms"),
      "core.CheiRank.jobs" -> (jobs("core.CheiRank"), "count"),
      "core.TwoDRank.ms" -> (ms("core.TwoDRank"), "ms"),
      "core.TwoDRank.jobs" -> (jobs("core.TwoDRank"), "count"),
      "spark.jobs_per_task" -> (perTask(_.jobs), "count"),
      "spark.stages_per_task" -> (perTask(_.stages), "count"),
      "spark.shuffle_bytes_per_task" -> (perTask(_.shuffleBytes), "bytes"),
    )
    val records = spans.map { s =>
      val c = tr.counts(s)
      ListMap[String, Any]("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "task" -> s.task,
        "ms" -> s.ms, "self_ms" -> tr.selfMs(s, spans),
        "jobs" -> c.jobs, "stages" -> c.stages, "shuffle_bytes" -> c.shuffleBytes)
    }
    Replay(layers, records, executes.map(_.ms).sum / 1e3)
  }

  /** Span name for a registry entry's call: the core object that does the work. */
  private def algorithmLayer(t: Task): String = t.algorithm.stripPrefix("personalized-") match {
    case "cyclerank" => s"core.CycleRank.k${t.params.getOrElse("k", "3")}"
    case "pagerank"  => "core.PageRank"
    case "cheirank"  => "core.CheiRank"
    case "2drank"    => "core.TwoDRank"
    case other       => s"core.$other"
  }
}
