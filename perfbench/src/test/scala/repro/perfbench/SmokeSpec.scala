package repro.perfbench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite

/** Smoke test of the harness: every workload at its smallest input, one
  * task, traced, with verification on. Run with `sbt test` in perfbench/.
  */
class SmokeSpec extends AnyFunSuite {

  private val workRoot = Files.createDirectories(Paths.get("target", "smoke"))

  private def smoke(workload: String): RunResult =
    Bench.run(RunConfig(workload, seed = 1, seconds = 0, trace = true,
      work = Files.createTempDirectory(workRoot, workload), smoke = true))

  private def jobsBySpan(r: RunResult): Seq[(Any, Any)] =
    r.record("spans").asInstanceOf[Seq[Map[String, Any]]].map(s => s("name") -> s("jobs"))

  for (workload <- Workloads.names) test(s"$workload: one task, verified and traced") {
    val r = smoke(workload)
    assert(r.correct, r.record("tasks"))
    assert(r.attempted == 2, "one task and its re-submit")
    assert(r.metrics("platform.Scheduler.resubmit_hit_ratio")._1 == 1.0)
    assert(r.metrics("spark.jobs_per_task")._1 > 0)
    assert(r.metrics.keySet.contains("trace.overhead_ratio"))
  }

  test("traced job counts repeat exactly for the same seed") {
    assert(jobsBySpan(smoke("cr-queries")) == jobsBySpan(smoke("cr-queries")))
  }
}
