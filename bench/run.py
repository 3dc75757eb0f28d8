"""affinestrata benchmark: one closed-loop caller, stdlib only.

    python3 bench/run.py --workload equiv_mix --seed 1 --seconds 32 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it times the
package's cold start, then calls the workload's operation on its round of
inputs, back to back and round after round, until ``--seconds`` of call time
are measured, checks every answer, and prints each metric with its unit, with
times scaled to a nominal host speed (``host.py``).  With ``--trace 1`` it
passes once over the round, each input plain and then with every listed
function wrapped in a span, and prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload, and ``--repeat N`` runs N seeds
(``--seed`` .. ``--seed + N - 1``), each in its own process, and reports the
median and quartiles of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import host
import stats
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
COLD_MODEL = '{"type": "A", "coeffs": ["1", "0", "0", "1", "0", "0"]}'
COLD_CODE = (
    "import sys\n"
    "from affinestrata.cli import run_cli\n"
    f"sys.exit(run_cli(['classify', {COLD_MODEL!r}]))\n"
)
MODULES = ("exact", "polys", "models", "curvature", "group_action", "strata", "classify", "sampling", "cli")


class SetupError(Exception):
    pass


def load_package():
    init = SRC / "affinestrata" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import affinestrata

    if Path(affinestrata.__file__).resolve() != init.resolve():
        raise SetupError(f"imported affinestrata from {affinestrata.__file__}, not from the checkout")
    return affinestrata


def cold_start(importtime: bool = False) -> tuple[int, int, str]:
    """One fresh interpreter that imports the package and answers
    ``classify``; returns (start ns, end ns, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", COLD_CODE]
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    t1 = time.perf_counter_ns()
    if proc.returncode != 0:
        raise SetupError(f"cold start exited {proc.returncode}: {proc.stderr[-500:]}")
    doc = json.loads(proc.stdout)
    if doc["stratum"]["kind"] != "flat_chart" or doc["orbit"]["id"] != "M1_0":
        raise SetupError(f"cold start answered {doc['stratum']} / {doc['orbit']}")
    return t0, t1, proc.stderr


def import_times() -> dict:
    """Self import time per package module, median over a few cold starts."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        *_, err = cold_start(importtime=True)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name == "affinestrata" or name.startswith("affinestrata."):
                short = name.rpartition(".")[2]
                samples.setdefault(short, []).append(int(self_us) / 1000)
    out = {}
    for short in ("affinestrata",) + MODULES:
        if short not in samples:
            raise SetupError(f"-X importtime did not report affinestrata module {short!r}")
        out[f"cli.import.{short}_ms"] = (statistics.median(samples[short]), "ms")
    return out


def timed_call(wl, item, tally) -> tuple[int, int, int | None]:
    """Call the operation on one item and check the answer; only the call is
    timed.  Returns (start ns, end ns, units of work), units None when the
    call raised."""
    t0 = time.perf_counter_ns()
    try:
        result = wl.run(item)
    except Exception as exc:  # the run goes on; the failure is counted
        t1 = time.perf_counter_ns()
        tally.answers[f"raised:{type(exc).__name__}"] += 1
        return t0, t1, None
    t1 = time.perf_counter_ns()
    return t0, t1, wl.check(item, result, tally)


def timed_rounds(wl, items, seconds: float):
    """Call the operation on each item back to back, round after round, until
    ``seconds`` of summed call time are measured, with a reference slice about
    every ``host.EVERY_NS`` of call time."""
    tally = workloads.Tally()
    times = host.Scaler()
    count: dict[int, int] = {}
    units: dict[int, int] = {}
    attempted = failed = busy = ref_busy = 0
    while True:
        for i, item in enumerate(items):
            attempted += 1
            try:
                t0, t1, n = timed_call(wl, item, tally)
            except workloads.WrongAnswer as exc:
                exc.attempted, exc.failed = attempted, failed
                raise
            busy += t1 - t0
            if n is None:
                failed += 1
            else:
                units[i] = n
                count[i] = count.get(i, 0) + 1
                times.add(i, t0, t1)
            done = busy >= seconds * 1e9
            if done or busy - ref_busy >= host.EVERY_NS:
                times.mark()
                ref_busy = busy
            if done:
                return Pass(times, count, units, attempted, failed, busy, tally)


class Pass(NamedTuple):
    times: host.Scaler  # every answered call, by item
    count: dict  # per item: calls answered
    units: dict  # per item: units of work of one call
    attempted: int
    failed: int
    busy: int
    tally: workloads.Tally


def end_to_end(run: Pass) -> tuple[dict, dict]:
    """Metrics over each answered input's mean call time, at the nominal host
    speed.  Every call counts, and every input counts once, so a run that
    stops inside a round weighs the inputs as the round does."""
    if not run.count:
        raise SetupError("no operation answered")
    rawsum, scaledsum = run.times.sums()
    raw = sum(rawsum[i] / run.count[i] for i in run.count)
    mean = {i: scaledsum[i] / run.count[i] for i in run.count}
    ordered = sorted(mean.values())
    tail_ns, p, beyond = stats.tail(ordered)
    work = sum(run.units[i] for i in run.count)
    metrics = {
        "ops_per_s": (work / (sum(ordered) / 1e9), "1/s"),
        "latency_p50_ms": (stats.percentile(ordered, 50) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
    }
    summary = {
        "host_factor": sum(ordered) / raw,
        "raw_ops_per_s": work / (raw / 1e9),
        "tail": {"percentile": p, "samples": len(ordered), "beyond": beyond},
    }
    return metrics, summary


def run_untraced(wl, seed: int, seconds: float):
    setups = host.Scaler()
    for j in range(SETUP_REPEATS):
        start, end, _ = cold_start()
        setups.add(j, start, end)
        setups.mark()
    items = wl.round(seed)
    t0 = time.perf_counter()
    run = timed_rounds(wl, items, seconds)
    wall = time.perf_counter() - t0
    metrics, summary = end_to_end(run)
    setup_raw, setup_scaled = setups.sums()
    metrics["setup_s"] = (statistics.median(setup_scaled.values()) / 1e9, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    summary.update(busy_s=run.busy / 1e9, wall_s=wall, rounds=run.attempted / len(items),
                   raw_setup_s=statistics.median(setup_raw.values()) / 1e9)
    return metrics, run.attempted, run.failed, summary, run.tally


def run_traced(wl, package, seed: int, items):
    """One pass over ``items``: each runs plain, then traced."""
    metrics = import_times()
    vseed = workloads.gen.verify_round(seed)[0]
    for check_id in package.classify.CHECKS:
        t0 = time.perf_counter()
        report = package.classify.verify_theorems(vseed, workloads.gen.VERIFY_SAMPLES, [check_id])
        metrics[f"classify.verify.{check_id}_s"] = (time.perf_counter() - t0, "s")
        if not report.all_passed:
            raise workloads.WrongAnswer(f"verify check {check_id} failed at seed {vseed}")
    # each input runs plain, then traced, so both see the same machine state
    tracer = Tracer()
    tracer.bind(package)
    tally = workloads.Tally()
    attempted = failed = plain_ns = traced_ns = 0
    for item in items:
        attempted += 1
        t0, t1, plain = timed_call(wl, item, tally)
        with tracer.installed():
            s0, s1, traced = timed_call(wl, item, workloads.Tally())
        failed += plain is None
        plain_ns += t1 - t0
        traced_ns += s1 - s0
        if (plain is None) != (traced is None):
            raise SetupError(f"item {attempted} raised {'untraced' if plain is None else 'traced'} only")
    metrics.update(tracer.metrics())
    self_ns = sum(ns for _, ns in tracer.self_times().values())
    if self_ns > traced_ns:
        raise SetupError(f"span self times sum to {self_ns} ns, more than the {traced_ns} ns traced")
    metrics["trace.plain_s"] = (plain_ns / 1e9, "s")
    metrics["trace.traced_s"] = (traced_ns / 1e9, "s")
    metrics["trace.overhead_s"] = ((traced_ns - plain_ns) / 1e9, "s")
    summary = tally.summary(attempted, failed)
    metrics["answers.undecided_share"] = (summary["undecided_share"], "ratio")
    metrics["answers.fail_share"] = (summary["fail_share"], "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{seed}.tsv.gz"
    tracer.dump(spans_path)
    extra = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer)}
    return metrics, attempted, failed, extra, tally


def run_once(args) -> int:
    try:
        package = load_package()
        wl = workloads.WORKLOADS[args.workload](package)
        if args.trace:
            metrics, attempted, failed, extra, tally = run_traced(wl, package, args.seed, wl.round(args.seed))
        else:
            metrics, attempted, failed, extra, tally = run_untraced(wl, args.seed, args.seconds)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except workloads.WrongAnswer as exc:
        print(f"bench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}))
        return 1
    summary = {"workload": wl.name, "seed": args.seed, "trace": args.trace, **extra, **tally.summary(attempted, failed)}
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_repeat(args) -> int:
    """Each (seed, workload) in a fresh process, workloads interleaved within
    each seed; median and quartiles of every metric per workload."""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    units: dict[str, str] = {}
    runs = []
    ok = True
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"bench: {name} seed {seed} failed (exit {proc.returncode}): {proc.stderr[-500:]}", file=sys.stderr)
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            runs.append(json.loads(lines[-2]))
            print(f"{name} seed {seed}: " + lines[-2], file=sys.stderr)
    report = {"nproc": os.cpu_count(), "python": platform.python_version(), "seconds": args.seconds,
              "trace": args.trace, "runs": runs}
    for name in names:
        report[name] = {m: {"unit": units[m], **stats.spread(v), "values": v} for m, v in sorted(values[name].items())}
        for metric, entry in report[name].items():
            spread = "-" if entry["spread"] is None else f"{entry['spread']:.3f}"
            print(f"{name} {metric} median {entry['median']:.6g} {entry['unit']} "
                  f"q1 {entry['q1']:.6g} q3 {entry['q3']:.6g} spread {spread} n {entry['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "repeat": args.repeat, "workloads": names}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="seeds to run, each in its own process")
    parser.add_argument("--out", help="write the repeat report as JSON to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if args.repeat > 1 or args.workload == "all":
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
