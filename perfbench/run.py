"""Benchmark of the photonstats CLI on three workloads, with reference checks.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): static-sweep, floquet-periodic,
joint-distribution.  Each run writes the workload's scenario files from the
seed, computes the independent references, then launches whole rounds of
CLI processes (``--threads 1``, BLAS pinned to one thread) until the next
round would overrun ``--seconds``, and checks every round's output.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds):
    wall_s       process start until the command returned, summed over the round
    setup_s      process start until the scenario was parsed (median over all
                 launches, including set-up-only launches)
    cpu_s        user + system CPU time of the round's processes
    peak_rss_mb  largest peak resident set of the round's processes
With ``--trace 1`` rounds come in pairs, one untraced and one traced, and the
JSON object holds the per-layer metrics of the traced rounds together with
the tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4
PROCESS_TIMEOUT_S = 150.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(cli_args, tag: str, rundir: str, trace: bool = False, setup_only: bool = False):
    """Run one CLI command in a child process; returns its measurements."""
    marks_path = os.path.join(rundir, f"{tag}.marks.json")
    trace_path = os.path.join(rundir, f"{tag}.spans.npz")
    cmd = [sys.executable, LAUNCH, marks_path]
    if trace:
        cmd += ["--trace", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--"] + list(cli_args)
    with open(os.path.join(rundir, f"{tag}.log"), "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0 or not os.path.exists(marks_path):
        raise BenchmarkError(f"{tag}: {' '.join(cli_args)} ended with {proc.returncode}; "
                             f"see {os.path.join(rundir, tag + '.log')}")
    with open(marks_path, encoding="utf-8") as fh:
        marks = json.load(fh)
    if "parse_end" not in marks:
        raise BenchmarkError(f"{tag}: the scenario was never loaded; "
                             f"see {os.path.join(rundir, tag + '.log')}")
    return {
        "spawn": spawn,
        "setup": marks["parse_end"] - spawn,
        "wall": marks["end"] - spawn,
        "end": marks["end"],
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": marks["code"],
        "trace": trace_path if trace else None,
    }


def run_round(workload, indir: str, rundir: str, index: int, trace: bool):
    outdir = os.path.join(rundir, f"round{index}")
    os.makedirs(outdir)
    procs = [launch(args, f"r{index}p{k}", rundir, trace=trace)
             for k, args in enumerate(workload.commands(indir, outdir))]
    check = workload.check(outdir)
    for p in procs:
        if p["code"] not in (0, 1):
            check.structural.append(f"exit code {p['code']}")
    shutil.rmtree(outdir)
    return {
        "wall": sum(p["wall"] for p in procs),
        "cpu": sum(p["cpu"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "setups": [p["setup"] for p in procs],
        "traces": [(p["trace"], p["spawn"], p["end"]) for p in procs if p["trace"]],
        "check": check,
    }


def measure(workload, seconds: float, trace: bool, rundir: str) -> dict:
    import tracing
    from workloads import CheckResult

    indir = os.path.join(rundir, "inputs")
    os.makedirs(indir)
    workload.write_inputs(indir)
    workload.prepare()
    t0 = time.monotonic()
    first = workload.commands(indir, os.path.join(rundir, "probe"))[0]
    setups = [launch(first, f"setup{k}", rundir, setup_only=True)["setup"]
              for k in range(SETUP_PROBES)]
    t_rounds = time.monotonic()
    plain, traced = [], []
    check = CheckResult()
    while True:
        unit = [run_round(workload, indir, rundir, len(plain) + len(traced), False)]
        if trace:
            unit.append(run_round(workload, indir, rundir, len(plain) + len(traced) + 1, True))
        for rnd in unit:
            check.merge(rnd["check"])
            setups += rnd["setups"]
        plain.append(unit[0])
        traced += unit[1:]
        now = time.monotonic()
        if now - t0 + (now - t_rounds) / len(plain) > seconds:
            break
    result = {"check": check, "rounds": len(plain) + len(traced)}
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        return result
    summaries = [tracing.summarize(r["traces"]) for r in traced]
    metrics = {k: statistics.median(s[0][k] for s in summaries) for k in summaries[0][0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
    result["metrics"] = metrics
    result["self_s"] = summaries[0][1]
    return result


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark stops its CLI process too (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "photonstats", "cli.py")):
        print(f"benchmark: no photonstats sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import photonstats

    if not os.path.abspath(photonstats.__file__).startswith(SRC + os.sep):
        print(f"benchmark: photonstats imported from {photonstats.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    rundir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        result = measure(workload, args.seconds, bool(args.trace), rundir)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    check = result["check"]
    for problem in check.structural:
        print(f"structural problem: {problem}")
    for label, count in sorted(check.misses.items()):
        print(f"check missed: {label} x{count}")
    for label, ratio in sorted(check.worst.items()):
        print(f"worst error/tolerance {label}: {ratio:.3g}")
    if "self_s" in result:
        print("self seconds by span (first traced round):")
        for name, value in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {value:10.4f}")
    print(f"rounds: {result['rounds']}")
    shutil.rmtree(rundir)
    print(json.dumps({
        "correct": not check.structural,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
