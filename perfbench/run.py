"""Benchmark for the `domcount` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is run from `src/`.
Each workload is a closed loop with one client: one `domcount ...` process at
a time, the next started when the previous one has exited.  A pass runs the
workload's job list once; the run repeats passes for about S seconds and
reports the median over passes (for setup_s, over processes).  Every job's
output is checked.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates an untraced pass with a traced one, in which every job runs in a
fresh interpreter (tracer.py) with spans around the public functions of each
package module, and reports per-layer self times.  The last line of stdout is
the result as one JSON object; the line before it records the machine, the
code and the sample count.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 30.0  # the slowest job takes 4-7 s on a 2-vCPU x86 VM
RUN_BUDGET_S = 150.0  # jobs not started by then fail, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.domcount_s": "s",
    "scanning.scan_labeled_s": "s",
    "scanning.scan_labeled.graphs_per_s": "1/s",
    "scanning.extremal_scan_s": "s",
    "scanning.extremal_scan.graphs_per_s": "1/s",
    "graph6.parse_graph6_s": "s",
    "graph6.parse_graph6.calls": "count",
    "graph6.parse_graph6.bytes": "bytes",
    "graph6.write_graph6_s": "s",
    "graph6.write_edge_list_s": "s",
    "graph6.parse_edge_list_s": "s",
    "domination.domination_number_s": "s",
    "domination.domination_number.union_s": "s",
    "domination.domination_number.connected_s": "s",
    "domination.domination_number.calls": "count",
    "domination.count_sets_s": "s",
    "domination.count_sets.union_s": "s",
    "domination.count_sets.connected_s": "s",
    "domination.count_sets.calls": "count",
    "constructions.build_component_graph_s": "s",
    "partitions.optimize_allocation_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> the metric family its self time adds to.
FAMILY = {
    "domination.total_domination_number": "domination.domination_number",
    "domination.count_sets_with_witnesses": "domination.count_sets",
    "cli.run_cli": "cli.self",
}
# Span name -> the call counter it adds one to (count_sets goes through
# count_sets_with_witnesses, so only the latter is counted).
CALLS = {
    "graph6.parse_graph6": "graph6.parse_graph6.calls",
    "domination.domination_number": "domination.domination_number.calls",
    "domination.total_domination_number": "domination.domination_number.calls",
    "domination.count_sets_with_witnesses": "domination.count_sets.calls",
}
SCANS = ("scanning.scan_labeled", "scanning.extremal_scan")


@dataclass
class Outcome:
    job: workloads.Job
    rc: int | None  # None: killed at the timeout, or never started
    wall: float
    maxrss_kb: int
    stdout: str
    stderr: str
    trace: dict | None = None
    error: str | None = None

    def elapsed_s(self) -> float | None:
        if self.rc != 0 or self.error:
            return None
        return json.loads(self.stdout)["elapsed_ms"] / 1000


def run_process(cmd: list[str], cwd: Path, env: dict, out: Path, err: Path):
    """Run one process to completion or to the timeout, through launch.py so
    that its max RSS is its own: (exit code or None, wall seconds, max RSS in
    KiB)."""
    result = cwd / "launch.json"
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), str(result), str(JOB_TIMEOUT_S), str(out), str(err), *cmd],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        launcher.wait()
    finally:
        if launcher.returncode is None:  # interrupted: stop the launcher and its job
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
    if launcher.returncode:
        raise RuntimeError(f"launch.py exited with code {launcher.returncode}")
    report = json.loads(result.read_text())
    return report["rc"], report["wall"], report["maxrss_kb"]


class Runner:
    """Runs job lists in one work directory and checks their outputs."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        # Cache bytecode in the checkout, as an installed package has it, so
        # set-up time does not depend on the caller's environment.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def command(self, job: workloads.Job, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
                    "trace.json", *job.argv]
        return [sys.executable, "-m", "domcount", *job.argv]

    def run_job(self, job: workloads.Job, traced: bool) -> Outcome:
        if time.perf_counter() > self.deadline:
            return Outcome(job, None, 0.0, 0, "", "", error="run time budget exhausted")
        out, err = self.work / "job.out", self.work / "job.err"
        rc, wall, rss = run_process(self.command(job, traced), self.work, self.env, out, err)
        stdout = out.read_text(errors="replace")
        stderr = err.read_text(errors="replace")
        outcome = Outcome(job, rc, wall, rss, stdout, stderr)
        if traced and rc == 0:
            outcome.trace = json.loads((self.work / "trace.json").read_text())
            outcome.rc, outcome.stdout = outcome.trace["rc"], outcome.trace["stdout"]
        return outcome

    def run_pass(self, jobs: list[workloads.Job], traced: bool) -> list[Outcome]:
        outcomes = [self.run_job(job, traced) for job in jobs]
        for outcome in outcomes:
            outcome.error = outcome.error or verdict(outcome)
        return outcomes


def verdict(o: Outcome) -> str | None:
    """Why a finished job failed, or None."""
    if o.rc is None:
        return f"killed after {JOB_TIMEOUT_S:.0f} s"
    job_stderr = "".join(line for line in o.stderr.splitlines(True)
                         if not line.startswith("import time:"))
    if "Traceback" in job_stderr:
        return "traceback on stderr"
    if o.rc != o.job.expect_rc:
        return f"exit code {o.rc}, expected {o.job.expect_rc}: {job_stderr.strip()[:200]}"
    if o.rc != 0:
        return "printed a report" if o.stdout.strip() else None
    try:
        report = json.loads(o.stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if not isinstance(report.get("elapsed_ms"), int):
        return "report has no integer elapsed_ms"
    try:
        return o.job.check(report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def end_to_end(outcomes: list[Outcome]) -> dict[str, list[float]]:
    """One pass's samples: one each of wall_s, compute_s and peak_rss_mb, and
    one setup_s per job that exited 0 (set-up is per process, so its median
    is taken over every process of the run, not over pass sums)."""
    elapsed = [(o.wall, o.elapsed_s()) for o in outcomes]
    return {"wall_s": [sum(o.wall for o in outcomes)],
            "setup_s": [wall - e for wall, e in elapsed if e is not None],
            "compute_s": [sum(e for _, e in elapsed if e is not None)],
            "peak_rss_mb": [max(o.maxrss_kb for o in outcomes) / 1024]}


def import_seconds(stderr: str) -> tuple[float, float]:
    """(numpy, domcount without numpy) import time from `-X importtime`:
    the cumulative time of the top-level entries."""
    numpy_us = domcount_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        top_level = not field[1:].startswith(" ")  # nested entries are indented
        name = field.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        elif top_level and (name == "domcount" or name.startswith("domcount.")):
            domcount_us += int(cumulative)
    return numpy_us / 1e6, (domcount_us - numpy_us) / 1e6


def span_arrays(trace: dict) -> dict[str, numpy.ndarray]:
    return {f: numpy.frombuffer(base64.b64decode(trace["spans"][f]), numpy.float64)
            for f in ("name", "parent", "start", "end", "work")}


def layer_metrics(traced: list[Outcome], untraced: list[Outcome]) -> dict[str, float]:
    values: dict[str, float] = defaultdict(float)
    scan_graphs: dict[str, float] = defaultdict(float)
    scan_time: dict[str, float] = defaultdict(float)
    for o in traced:
        numpy_s, domcount_s = import_seconds(o.stderr)
        values["import.numpy_s"] += numpy_s
        values["import.domcount_s"] += domcount_s
        if o.trace is None:
            continue
        a = span_arrays(o.trace)
        names = o.trace["spans"]["names"]
        name_id, parent = a["name"].astype(int), a["parent"].astype(int)
        duration = a["end"] - a["start"]
        nested = parent >= 0
        child_time = numpy.bincount(parent[nested], duration[nested], len(duration))
        self_time = numpy.bincount(name_id, duration - child_time, len(names))
        inclusive = numpy.bincount(name_id, duration, len(names))
        calls = numpy.bincount(name_id, minlength=len(names))
        work = numpy.bincount(name_id, a["work"], len(names))
        for i, name in enumerate(names):
            family = FAMILY.get(name, name)
            values[f"{family}_s"] += self_time[i]
            if o.job.kind and family.startswith("domination."):
                values[f"{family}.{o.job.kind}_s"] += self_time[i]
            if name in CALLS:
                values[CALLS[name]] += calls[i]
            if name == "graph6.parse_graph6":
                values["graph6.parse_graph6.bytes"] += work[i]
            if name in SCANS:
                scan_graphs[name] += work[i]
                scan_time[name] += inclusive[i]
    for name in SCANS:
        if scan_time[name]:
            values[f"{name}.graphs_per_s"] = scan_graphs[name] / scan_time[name]
    values["trace.overhead_s"] = sum(o.wall for o in traced) - sum(o.wall for o in untraced)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def measure(runner: Runner, jobs: list[workloads.Job], seconds: float, trace: bool):
    """Start passes until `seconds` have gone by (at least one pass).
    Returns every outcome and each pass's metric samples."""
    start = time.perf_counter()
    outcomes, samples = [], []
    while True:
        untraced = runner.run_pass(jobs, traced=False)
        outcomes += untraced
        if trace:
            traced = runner.run_pass(jobs, traced=True)
            outcomes += traced
            samples.append({k: [v] for k, v in layer_metrics(traced, untraced).items()})
        else:
            samples.append(end_to_end(untraced))
        if time.perf_counter() - start >= seconds:
            return outcomes, samples


def result(outcomes: list[Outcome], samples: list[dict], units: dict) -> dict:
    failed = sum(o.error is not None for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": median([v for s in samples for v in s[name]]), "unit": unit}
                    for name, unit in units.items()},
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0  # no job exited 0


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def facts(root: Path, spec: dict, args, samples: int) -> dict:
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")),
    }


def self_check(root: Path, work: Path) -> list[str]:
    """One cheap job per workload, untraced and traced: the result schema,
    the metric names against BENCHMARK.json, and that each check rejects a
    report with one field changed.  No timing is judged."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for kind, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != units:
            problems.append(f"BENCHMARK.json {kind} differs from the metrics reported")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    cheap = {"labeled_scan": "scan --n 4", "corpus_scan": "scan --corpus corpus0.g6 --total",
             "count": "gamma --in u46x6.edges", "build": "construct --n 991"}
    for name, make_jobs in workloads.WORKLOADS.items():
        jobs = [j for j in make_jobs(work, 1) if " ".join(j.argv).startswith(cheap[name])][:1]
        if not jobs:
            problems.append(f"{name}: no job starts with {cheap[name]!r}")
            continue
        runner = Runner(root, work)
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            outcomes, samples = measure(runner, jobs, 0, trace)
            out = json.loads(json.dumps(result(outcomes, samples, units)))
            if sorted(out) != ["attempted", "correct", "failed", "metrics"] or set(out["metrics"]) != set(units):
                problems.append(f"{name}: result keys wrong")
            if not out["correct"] or out["failed"]:
                problems += [f"{name}: {o.job.argv}: {o.error}" for o in outcomes if o.error]
        good = json.loads(outcomes[0].stdout)
        field = "count" if "count" in good else "gamma"
        wrong = [(f"{field} + 1", {**good, field: int(good[field]) + 1})]
        if "graph6" in good:  # same bytes in another order: same length and edge count
            body = good["graph6"]
            k = next(k for k in range(4, len(body)) if body[k] != body[4])
            swapped = body[:4] + body[k] + body[5:k] + body[4] + body[k + 1:]
            wrong.append(("graph6 with two bytes swapped", {**good, "graph6": swapped}))
        for what, report in wrong:
            if jobs[0].check(report) is None:
                problems.append(f"{name}: check accepted a report with {what}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so the running job is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "domcount" / "cli.py").is_file():
        print("perfbench: run from the root of a domcount checkout (no src/domcount)", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.self_check:
            problems = self_check(root, work)
            print("\n".join(problems) or "self-check passed")
            return 1 if problems else 0
        jobs = workloads.WORKLOADS[args.workload](work, args.seed)
        runner = Runner(root, work)
        # Untimed: writes the package's bytecode cache and warms the file cache.
        runner.run_job(workloads.Job(["formula", "--n", "6", "--gamma", "2"], lambda r: None), False)
        outcomes, samples = measure(runner, jobs, args.seconds, bool(args.trace))
        for o in outcomes:
            if o.error:
                print(f"perfbench: FAILED {' '.join(o.job.argv)}: {o.error}", file=sys.stderr)
        spec = json.loads((root / "BENCHMARK.json").read_text())
        print(json.dumps({"facts": facts(root, spec, args, len(samples))}))
        print(json.dumps(result(outcomes, samples, PER_LAYER if args.trace else END_TO_END)))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
