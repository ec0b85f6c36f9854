"""Benchmark of causaldeco: one workload per process, one caller in a
closed loop, BLAS threads capped at min(2, nproc).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synthesis --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

The run sets up its inputs three times (setup_s is the median), then
repeats whole rounds of the workload's operations until ``--seconds``
have passed.  Every output is checked after its clock stops.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every operation runs untraced and traced, and the line
carries the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = 3
# guard against a runaway allocation taking the machine's memory
ADDRESS_SPACE_BYTES = 4 << 30
NAMES = ("synthesis", "certificate", "analysis", "screening")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def time_setup(setup, warmup, seed, work):
    """One set-up: a fresh interpreter importing the CLI, the inputs made
    and written, and the warm-up operations run."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import causaldeco.cli"],
                   env=child_env(), cwd=ROOT, check=True, timeout=120)
    ops = setup(seed, work)
    for op in warmup(seed, work):
        op.judge(op.call())
    return time.perf_counter() - t0, ops


def run_workload(name, seed, seconds, trace, work):
    import workloads
    from checks import CheckError
    from layers import Tracer

    setup, warmup = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, ops = time_setup(setup, warmup, seed, work)
        setups.append(dt)

    tracer = Tracer() if trace else None
    samples = {"primary": [], "secondary": []}
    per_op = {op.label: [] for op in ops}
    spent = {False: 0.0, True: 0.0}
    errors = []
    ok = failed = attempted = 0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            # a traced run times each operation untraced and traced, in
            # alternating order, so the overhead compares like with like
            modes = (False,)
            if trace:
                modes = (False, True) if (rounds + k) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.on()
                t0 = time.perf_counter()
                try:
                    res = op.call()
                except Exception as exc:  # reported as a wrong output below
                    res = exc
                dt = time.perf_counter() - t0
                if traced:
                    tracer.off()
                spent[traced] += dt
                attempted += 1
                try:
                    if isinstance(res, Exception):
                        raise CheckError(f"raised {type(res).__name__}: {res}")
                    verdict = op.judge(res)
                except CheckError as exc:
                    failed += 1
                    errors.append(f"{op.label}: {exc}")
                    continue
                if verdict == "fault":
                    failed += 1
                    continue
                if not traced:
                    ok += 1
                    per_op[op.label].append(dt)
                    if op.klass:
                        samples[op.klass].append(dt)
        rounds += 1

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for label, ts in per_op.items():
        if ts:
            print(f"{label:44s} n={len(ts):3d} median {statistics.median(ts):.4f} s",
                  file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed}
    if trace:
        print(tracer.report(rounds), file=sys.stderr)
        result["metrics"] = tracer.metrics(rounds, spent[True], spent[False])
        return result
    for klass, ts in samples.items():
        if not ts:
            raise RuntimeError(f"no successful {klass} operation to time")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "ops_per_s": {"value": ok / spent[False], "unit": "1/s"},
        "primary_p50_s": {"value": statistics.median(samples["primary"]),
                          "unit": "s"},
        "secondary_p50_s": {"value": statistics.median(samples["secondary"]),
                            "unit": "s"},
    }
    print(f"rounds={rounds} setups={[round(s, 3) for s in setups]}",
          file=sys.stderr)
    return result


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        print(json.dumps({"workload": name, **json.loads(last[0])}), flush=True)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is first imported, here and in every child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "causaldeco" / "__init__.py").is_file():
        print(f"error: no causaldeco sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, hard))
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
