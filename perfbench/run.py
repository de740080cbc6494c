#!/usr/bin/env python3
"""Platform benchmark: runs one workload of the headless demo platform.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark with sbt
(offline) into perfbench/target; later runs start `java` on the saved
classpath. Each run gets a fresh JVM and SparkSession, writes its full
record to perfbench/results/, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cr-queries", "pr-queries", "paper-replay")
CLASSPATH = HERE / "target" / "classpath.txt"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the main build reads: the benchmark's own and the program's."""
    roots = [HERE / "src" / "main", ROOT / "src" / "main" / "scala"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties", HERE / "jvm.options",
             ROOT / "src" / "test" / "scala" / "repro" / "core" / "Reference.scala"]
    for r in roots:
        files.extend(p for p in r.rglob("*") if p.is_file())
    return files


def build():
    if not (ROOT / "src" / "main" / "scala" / "repro" / "platform").is_dir():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    if CLASSPATH.exists():
        stamp = CLASSPATH.stat().st_mtime
        if all(f.stat().st_mtime <= stamp for f in sources()):
            return
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SPARK_HOME" not in env and shutil.which("spark-submit"):
        env["SPARK_HOME"] = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"]
    done = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL)
    if done.returncode != 0 or not CLASSPATH.exists():
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    """Runs one workload in a fresh JVM; returns its stdout lines."""
    opts = [l.strip() for l in (HERE / "jvm.options").read_text().splitlines() if l.strip()]
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    tmp = work / "tmp"
    tmp.mkdir()
    record = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = ["java", *opts, f"-Djava.io.tmpdir={tmp}", "-cp", CLASSPATH.read_text().strip(),
           "repro.perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work / "run"), "--record", str(record)]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"{workload} exited with code {proc.returncode} and no result line")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the JVM is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        print("\n".join(run_one(w, args.seed, args.seconds, args.trace)), flush=True)


if __name__ == "__main__":
    main()
