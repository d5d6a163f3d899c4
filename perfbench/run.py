"""Benchmark harness for hilbertalg: batch workloads timed from outside the program.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is ``enumerate-6``, ``suites-6``, ``verify-5`` or ``all``.  Each
workload is a closed loop with one client: an invocation runs to completion
before the next starts, until ``--seconds`` have passed (at least one).  Every
invocation is a fresh interpreter; its wall time, CPU time and peak RSS
(including its pool workers) come from ``os.wait4``.  Every output is checked
against the goldens in ``goldens.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the workload
once more at jobs=1 with spans around the calls into each layer and prints the
per-layer metrics of ``layers.py``.  Human-readable lines come first, then a
``{"record": ...}`` line with machine info and every sample, and last the
result object.  The exit code is 0 when every output was correct, 1 when one
was not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("enumerate-6", "suites-6", "verify-5")
CHILD = os.path.join(HERE, "child.py")
SETUP_REPS = 5
# no workload may run longer than this in one invocation of this script
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("first_block_s", "s"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
]

# the line that starts the first per-algebra block of each kind of workload
FIRST_BLOCK = {
    "enumerate": lambda line: line.startswith(b"[0] "),
    "verify": lambda line: line.startswith(b"== algebra"),
    "suites": lambda line: True,
}


class BenchError(Exception):
    """The benchmark cannot run: no checkout, no goldens, or a failed set-up."""


@dataclass
class ChildResult:
    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float
    first_s: float | None


@dataclass
class Sample:
    """One timed invocation and the operations it checked."""

    wall: float
    cpu: float
    rss_mb: float
    first_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdin, timeout, first_block=None):
    """Run ``argv`` to completion in its own session and measure it.

    CPU time and peak RSS come from ``wait4`` and so include every pool worker
    the child reaped.  ``first_s`` is when the first stdout line matching
    ``first_block`` arrived.  The process group is killed at ``timeout``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        start_new_session=True,
    )
    err = []
    readers = [threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    if stdin is not None:
        def feed():
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass

        readers.append(threading.Thread(target=feed))
    for t in readers:
        t.start()
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.start()
    lines, first_s, status, usage = [], None, None, None
    try:
        for line in proc.stdout:
            if first_s is None and first_block is not None and first_block(line):
                first_s = time.perf_counter() - start
            lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if status is None:
            _kill_group(proc)
            proc.wait()
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        rc=proc.returncode,
        out=b"".join(lines),
        err=b"".join(err),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        first_s=first_s,
    )


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# output checks against the goldens


def kind(workload):
    """``enumerate``, ``suites`` or ``verify``: the workload name without its size."""
    return workload.split("-")[0]


def check_cli(workload, rc, digest, goldens, stdout=None):
    """Problems with one enumerate-N or verify-N run: exit code, stdout digest, counts."""
    if kind(workload) == "enumerate":
        golden = goldens["enumerate"][workload.split("-")[1]]
    else:
        golden = goldens[workload]
    problems = []
    if rc != 0:
        problems.append(f"{workload}: exit code {rc}")
    if digest != golden["stdout_sha256"]:
        problems.append(f"{workload}: stdout SHA-256 {digest} differs from the golden")
    if kind(workload) == "enumerate" and stdout is not None:
        m = re.match(rb"size \d+: (\d+) algebra\(s\) up to isomorphism, (\d+) raw table", stdout)
        if not m or (int(m[1]), int(m[2])) != (golden["classes"], golden["raw"]):
            problems.append(f"{workload}: class or raw-table count differs from the golden")
    return problems


def check_suites(workload, indices, results, goldens):
    """(failed algebras, problems) of suites-N results for catalog ``indices``."""
    expected = goldens[workload]["algebras"]
    problems = []
    if len(results) != len(indices):
        problems.append(f"{workload}: {len(results)} results for {len(indices)} algebras")
        return len(indices), problems
    failed = 0
    for i, checks in zip(indices, results):
        if any(row[2] == "fail" for row in checks):
            failed += 1
            problems.append(f"{workload}: algebra {i} has a failing check")
        elif child.multiset_digest(checks) != expected[i]:
            failed += 1
            problems.append(f"{workload}: algebra {i} check multiset differs from the golden")
    return failed, problems


# ---------------------------------------------------------------------------
# workloads


def setup(workload, seed, deadline):
    """(median set-up seconds, inputs) over SETUP_REPS fresh set-ups."""
    times, inputs = [], None
    for _ in range(SETUP_REPS):
        res = run_child(
            [sys.executable, CHILD, "setup", workload, str(seed)], None, _left(deadline)
        )
        if res.rc != 0:
            raise BenchError(f"set-up failed: {res.err.decode(errors='replace').strip()}")
        times.append(res.wall)
        inputs = res.out
    return layers.median(times), inputs, times


def invoke(workload, inputs, goldens, deadline):
    """One timed, checked invocation of the workload."""
    if kind(workload) == "suites":
        argv = [sys.executable, CHILD, "suites", str(child.POOL_JOBS)]
        res = run_child(argv, inputs, _left(deadline), FIRST_BLOCK["suites"])
        n = len(goldens[workload]["algebras"])
        if res.rc != 0:
            failed, problems = n, [f"{workload}: exit code {res.rc}: {_tail(res.err)}"]
        else:
            results = [json.loads(line) for line in res.out.splitlines()]
            failed, problems = check_suites(workload, range(n), results, goldens)
        attempted = n
    else:
        argv = [sys.executable, "-m", "hilbertalg", *child.cli_argv(workload, child.POOL_JOBS)]
        res = run_child(argv, None, _left(deadline), FIRST_BLOCK[kind(workload)])
        digest = hashlib.sha256(res.out).hexdigest()
        problems = check_cli(workload, res.rc, digest, goldens, res.out)
        if res.rc != 0:
            problems.append(_tail(res.err))
        attempted, failed = 1, int(bool(problems))
    return Sample(
        wall=res.wall,
        cpu=res.cpu,
        rss_mb=res.rss_mb,
        first_s=res.first_s if res.first_s is not None else res.wall,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def measure(workload, inputs, goldens, seconds, deadline):
    """Invocations back to back until ``seconds`` have passed; at least one."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(invoke(workload, inputs, goldens, deadline))
        now = time.perf_counter()
        if now - start >= seconds or now + samples[-1].wall >= deadline:
            return samples


def end_to_end(samples, setup_s):
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    return {
        "wall_s": layers.median([s.wall for s in samples]),
        "cpu_s": layers.median([s.cpu for s in samples]),
        "peak_rss_mb": layers.median([s.rss_mb for s in samples]),
        "first_block_s": layers.median([s.first_s for s in samples]),
        "success_rate": (attempted - failed) / attempted,
        "setup_s": setup_s,
    }


def traced(workload, inputs, goldens, deadline):
    """(per-layer metrics, attempted, failed, problems, raw aggregates) of a traced run."""
    if kind(workload) == "suites":
        argv, stdin = ["suites"], inputs
    else:
        argv, stdin = ["cli", *child.cli_argv(workload, 1)], None
    res = run_child([sys.executable, CHILD, "trace", *argv], stdin, _left(deadline))
    if res.rc != 0:
        raise BenchError(f"traced run failed: exit code {res.rc}: {_tail(res.err)}")
    data = json.loads(res.out)
    attempted = failed = 0
    problems = []
    for run in data["cli_runs"]:
        p = check_cli(workload, run["rc"], run["sha256"], goldens)
        attempted, failed, problems = attempted + 1, failed + int(bool(p)), problems + p
    for run in data["suite_runs"]:
        f, p = check_suites(workload, run["indices"], run["statuses"], goldens)
        attempted, failed, problems = attempted + len(run["indices"]), failed + f, problems + p
    return layers.layer_metrics(data), attempted, failed, problems, data


def _left(deadline):
    return max(1.0, deadline - time.perf_counter())


def _tail(err):
    """The last lines of a child's stderr, for a problem report."""
    return "\n".join(err.decode(errors="replace").strip().splitlines()[-5:])


# ---------------------------------------------------------------------------
# reporting


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    """SHA-256 over the package sources, naming the code even without a commit."""
    h = hashlib.sha256()
    pkg = os.path.join("src", "hilbertalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace, goldens, deadline):
    setup_s, inputs, setup_times = setup(workload, seed, deadline)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setup_times,
    }
    if trace:
        metrics, attempted, failed, problems, data = traced(workload, inputs, goldens, deadline)
        record["spans"] = {
            name: {"calls": data["calls"][name], "busy_s": data["busy"][name]}
            for name in sorted(data["calls"])
        }
        per_algebra = data["durations"].get("suites.algebra", [])
        record["suites.algebra_samples"] = len(per_algebra)
        record["suites.algebra_tail_percentile"] = layers.tail_percentile(per_algebra)
        record["trace_runs_s"] = {"traced": data["traced_s"], "untraced": data["untraced_s"]}
    else:
        samples = measure(workload, inputs, goldens, seconds, deadline)
        metrics = end_to_end(samples, setup_s)
        attempted = sum(s.attempted for s in samples)
        failed = sum(s.failed for s in samples)
        problems = [p for s in samples for p in s.problems]
        record["invocations"] = len(samples)
        record["samples"] = [
            {"wall_s": s.wall, "cpu_s": s.cpu, "peak_rss_mb": s.rss_mb, "first_block_s": s.first_s}
            for s in samples
        ]
        record["error_rate"] = failed / attempted
    record["problems"] = problems
    units = layers.UNITS if trace else dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record, result


def print_human(record, result):
    w = record["workload"]
    print(f"== {w} (seed {record['seed']}, trace {record['trace']})")
    if not record["trace"]:
        print(f"   invocations: {record['invocations']} (each metric is their median)")
        print(f"   error_rate = {record['error_rate']!r} (failed / attempted operations)")
    for name, m in result["metrics"].items():
        print(f"   {name} = {m['value']!r} {m['unit']}")
    print(f"   attempted={result['attempted']} failed={result['failed']}")
    for p in record["problems"]:
        print(f"   PROBLEM: {p}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hilbertalg", "__init__.py")):
        print("error: run from the root of a checkout (no src/hilbertalg)", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
            goldens = json.load(fh)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records, results = [], []
        for w in workloads:
            deadline = time.perf_counter() + RUN_LIMIT_S
            record, result = run_workload(
                w, args.seed, args.seconds, args.trace, goldens, deadline
            )
            print_human(record, result)
            records.append(record)
            results.append(result)
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"record": {"machine": machine_info(), "runs": records}}))
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}.{name}": m
                for w, r in zip(workloads, results)
                for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
