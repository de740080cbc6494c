package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap

/** Runs one workload and prints its report; the last line of standard
  * output is the JSON result line.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --work <scratch dir> [--record <file>]
  * }}}
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"unexpected argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val cfg = RunConfig(
      workload = opt("workload"),
      seed = opt("seed").toLong,
      seconds = opt("seconds").toDouble,
      trace = opt("trace") == "1",
      work = Paths.get(opt("work")))
    require(Workloads.names.contains(cfg.workload),
      s"unknown workload '${cfg.workload}'; known: ${Workloads.names.mkString(", ")}")

    val result =
      try Bench.run(cfg)
      catch {
        case e: Throwable =>
          // Exit now: idle scheduler threads would otherwise keep the JVM up.
          e.printStackTrace()
          sys.exit(1)
      }
    opts.get("record").foreach { f =>
      val p = Paths.get(f)
      Files.createDirectories(p.toAbsolutePath.getParent)
      Files.write(p, Json(result.record).getBytes(UTF_8))
    }
    println(s"perfbench ${cfg.workload} seed=${cfg.seed} trace=${if (cfg.trace) 1 else 0}")
    for ((name, (v, unit)) <- result.metrics) println(f"  $name%-40s $v%.6g $unit")
    val tail = result.record("task_tail").asInstanceOf[ListMap[String, Any]]
    println(s"  task_tail_s is p${tail("percentile")} of ${tail("samples")} tasks " +
      s"(${tail("samples_beyond")} beyond it)")
    println(f"  failed_ratio ${result.failed.toDouble / result.attempted}%.6g " +
      s"(${result.failed} of ${result.attempted} operations)")
    for (t <- result.record("tasks").asInstanceOf[Seq[ListMap[String, Any]]];
         m <- t("mismatch").asInstanceOf[Option[String]])
      println(s"  MISMATCH ${t("algorithm")} ${t("params")}: $m")
    println(Json(ListMap(
      "correct" -> result.correct,
      "attempted" -> result.attempted,
      "failed" -> result.failed,
      "metrics" -> result.metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) })))
    System.out.flush()
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: Main --workload <${Workloads.names.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1> --work <dir> [--record <file>]")
    sys.exit(2)
  }
}

/** Minimal JSON writer for the record and the result line. */
object Json {
  def apply(v: Any): String = v match {
    case null | None      => "null"
    case Some(x)          => apply(x)
    case s: String        => quote(s)
    case b: Boolean       => b.toString
    case d: Double        => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n @ (_: Int | _: Long) => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]  => xs.map(apply).mkString("[", ", ", "]")
    case other            => quote(other.toString)
  }

  private def quote(s: String): String = s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case '\n' => "\\n"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c    => c.toString
  }.mkString("\"", "", "\"")
}
