"""Benchmark entry point.

    python3 perfbench/run.py --workload simulate-cold|grid-warm|all \
        --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout against the package in its
``src/``, checks every op's output with the scipy oracle, and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Results and traces are also written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import layer_metrics, merge_totals  # noqa: E402

# set-ups per run; setup_s is their median
SETUPS = {"grid-warm": 3, "simulate-cold": 5}
CLI_CODE = "import sys\nfrom pilotplan.cli import main\nsys.exit(main())"


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _spawn(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT, text=True)


def _finish(proc: subprocess.Popen):
    """Drain a child, reap it, and return (stdout, stderr, exit code, rusage)."""
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return out, err, proc.returncode, usage


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# in-process workload: grid-warm
# ---------------------------------------------------------------------------

def _worker_argv(workload, seed, seconds, trace, replicates, extra=()):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--replicates", str(replicates), *extra]


def _start_worker(argv):
    t0 = time.perf_counter()
    proc = _spawn(argv)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line.startswith("READY "):
        _, err, code, _ = _finish(proc)
        raise BenchError(f"worker did not start (exit {code}): {err.strip()[-2000:]}")
    loaded = line.split(" ", 1)[1].strip()
    if not loaded.startswith(SRC + os.sep):
        _finish(proc)
        raise BenchError(f"worker imported {loaded}, not the package under {SRC}")
    return proc, setup


def run_inprocess(workload, seed, seconds, trace, replicates, setups, spans_path):
    samples = []
    for _ in range(setups - 1):
        proc, setup = _start_worker(_worker_argv(workload, seed, seconds, trace,
                                                 replicates, ["--setup-only"]))
        _finish(proc)
        samples.append(setup)
    extra = ["--spans-out", spans_path] if trace else []
    proc, setup = _start_worker(_worker_argv(workload, seed, seconds, trace,
                                             replicates, extra))
    samples.append(setup)
    out, err, code, _ = _finish(proc)
    if code != 0:
        raise BenchError(f"worker exit {code}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    timed = res["ops"][:res["timed_ops"]]
    return {
        "setup_samples": samples,
        "latencies_ms": [ms for _, ms, _, _ in timed],
        "results": [(i, out, err) for i, _, out, err in res["ops"]],
        "peak_rss_mb": res["peak_rss_mb"],
        "busy_s": res["busy_s"], "ops_done": res["ops_done"],
        "totals": res["totals"], "cli_startup_ns": 0,
    }


# ---------------------------------------------------------------------------
# simulate-cold: one fresh CLI process per op
# ---------------------------------------------------------------------------

def _cli_argv(args, traced, spans_out="-"):
    if traced:
        return [sys.executable, os.path.join(HERE, "tracedcli.py"), spans_out, *args]
    return [sys.executable, "-c", CLI_CODE, *args]


def _cli_op(args, traced=False, spans_out="-"):
    t0 = time.perf_counter()
    proc = _spawn(_cli_argv(args, traced, spans_out))
    out, err, code, usage = _finish(proc)
    wall = time.perf_counter() - t0
    trace = None
    if traced:
        tail = [ln for ln in err.splitlines() if ln.startswith("TRACE ")]
        trace = json.loads(tail[-1][6:]) if tail else None
    return wall, out, err, code, usage.ru_maxrss / 1024.0, trace


def run_cold(seed, seconds, trace, replicates, setups, spans_path):
    samples = []
    for _ in range(setups):
        t0 = time.perf_counter()
        ops = workloads.make_ops("simulate-cold", seed, replicates)
        _, out, err, code, _, _ = _cli_op(workloads.WARMUP_ARGS)
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise BenchError(f"warm-up CLI exit {code}: {err.strip()[-2000:]}")
    warmup = (workloads.WARMUP_PLAN, json.loads(out)["results"])
    results, latencies, rss = [], [], []
    busy = {"untraced": 0.0, "traced": 0.0}
    done = {"untraced": 0, "traced": 0}
    totals: dict = {}
    startup_ns = 0
    start = time.perf_counter()
    while True:
        modes = (False, True) if trace else (False,)
        for traced in modes:
            for i, op in enumerate(ops):
                spans_out = spans_path if traced and done["traced"] == 0 else "-"
                wall, out, err, code, maxrss, tr = _cli_op(workloads.cli_args(op),
                                                           traced, spans_out)
                key = "traced" if traced else "untraced"
                busy[key] += wall
                done[key] += 1
                if code != 0 or (traced and tr is None):
                    results.append((i, None, f"exit {code}: {err.strip()[-500:]}"))
                    continue
                results.append((i, json.loads(out), None))
                if traced:
                    merge_totals(totals, tr["totals"])
                    startup_ns += int(wall * 1e9) - tr["main_ns"]
                else:
                    latencies.append(wall * 1e3)
                    rss.append(maxrss)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "setup_samples": samples, "latencies_ms": latencies, "results": results,
        "peak_rss_mb": max(rss) if rss else 0.0, "busy_s": busy, "ops_done": done,
        "totals": totals if trace else None, "cli_startup_ns": startup_ns,
        "extra_checks": [warmup],
    }


# ---------------------------------------------------------------------------
# checks, metrics, output
# ---------------------------------------------------------------------------

def verify(workload, seed, replicates, run):
    """Check every op with the oracle; returns (failed, check failures)."""
    import oracle   # scipy loads here, after every measured process has ended

    problems = [f"oracle self-test: {e}" for e in oracle.self_test()]
    ops = workloads.make_ops(workload, seed, replicates)
    failed = 0
    checks = list(run.get("extra_checks", []))
    for i, out, err in run["results"]:
        if err is None:
            checks.append((ops[i], out))
        else:
            failed += 1
    for op, out in checks:
        problems += [f"{op['op']} {op}: {e}" for e in oracle.check(op, out)]
    return failed, problems


def end_to_end(run) -> dict:
    lat = run["latencies_ms"]
    return {
        "setup_s": (statistics.median(run["setup_samples"]), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (_p90(lat), "ms"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run) -> dict:
    done, busy = run["ops_done"], run["busy_s"]
    metrics = layer_metrics(run["totals"], done["traced"], run["cli_startup_ns"])
    untraced = done["untraced"] / busy["untraced"]
    traced = done["traced"] / busy["traced"]
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced / untraced), "%")
    return metrics


def run_workload(workload, seed, seconds, trace, replicates=workloads.REPLICATES,
                 setups=None) -> dict:
    if not os.path.isfile(os.path.join(SRC, "pilotplan", "__init__.py")):
        raise BenchError(f"no package to benchmark: {SRC}/pilotplan is missing")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    # a traced run reports no setup_s, so it sets up once
    setups = setups or (1 if trace else SETUPS[workload])
    if workload == "simulate-cold":
        run = run_cold(seed, seconds, trace, replicates, setups, stem + "-spans.jsonl")
    else:
        run = run_inprocess(workload, seed, seconds, trace, replicates, setups,
                            stem + "-spans.jsonl")
    failed, problems = verify(workload, seed, replicates, run)
    metrics = per_layer(run) if trace else end_to_end(run)
    result = {
        "correct": not problems,
        "attempted": len(run["results"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, workload=workload, seed=seed, seconds=seconds,
                       problems=problems, setup_samples=run["setup_samples"],
                       latencies_ms=run["latencies_ms"]), fh, indent=1)
    for p in problems[:20]:
        print(f"CHECK FAILED {workload}: {p}", file=sys.stderr)
    return result


def _summary(workload, result) -> str:
    lines = [f"{workload}: attempted {result['attempted']} ops, failed {result['failed']}, "
             f"correct {result['correct']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(_summary(name, result))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
