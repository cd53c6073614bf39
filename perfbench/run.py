#!/usr/bin/env python3
"""sereep end-to-end benchmark: builds the driver, runs one workload, prints
every metric by name with its unit and sample count, and ends with one JSON
line.

    python3 perfbench/run.py --workload cold_bench_sweep --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a span trace, written as Chrome trace-event JSON to
.bench_build/work/<workload>/trace.json. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cold_bench_sweep", "serve_hot_reads", "edit_requery")
DRIVER_TIMEOUT_S = 170
MIN_BEYOND = 10  # samples a reported tail percentile must have above it

# End-to-end metrics every workload reports; these are the --trace 0 JSON.
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed in the table where they apply, not in the JSON.
END_TO_END_EXTRA = {
    "psens_abs_err": "prob",
    "latency_ms_p90": "ms",
    "sweep_req_ms_p50": "ms",
    "ser_req_ms_p50": "ms",
    "psens_req_ms_p50": "ms",
    "error_rate": "ratio",
}
# Per-layer metrics; these are the --trace 1 JSON (0 where a workload does
# not exercise the layer).
PER_LAYER = {
    "netlist.parse_ms": "ms",
    "netlist.compile_ms": "ms",
    "netlist.plan_ms": "ms",
    "netlist.plan_clusters": "count",
    "artifact.load_ms": "ms",
    "sigprob.sp_ms": "ms",
    "epp.cold_sweep_csv_ms": "ms",
    "epp.psens_first_ms": "ms",
    "epp.psens_warm_ms": "ms",
    "epp.psens_1t_ms": "ms",
    "epp.sweep_csv_warm_ms": "ms",
    "epp.records_ms": "ms",
    "epp.psens_abs_err": "prob",
    "epp.cpu_util": "ratio",
    "epp.scaling_1to4": "ratio",
    "ser.fold_ms": "ms",
    "render.ser_csv_ms": "ms",
    "render.bytes": "B",
    "session.apply_edit_ms": "ms",
    "session.requery_ms": "ms",
    "session.resweep_sites": "count",
    "session.resweep_frac": "ratio",
    "session.builds": "count",
    "serve.rtt_ms.sweep": "ms",
    "serve.rtt_ms.ser": "ms",
    "serve.rtt_ms.psens": "ms",
    "serve.overhead_ms": "ms",
    "serve.queue_ms.sweep": "ms",
    "serve.queue_ms.ser": "ms",
    "serve.queue_ms.psens": "ms",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.busy_rejects": "count",
    "serve.errors": "count",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


class Fatal(Exception):
    """A run that cannot produce a result (build failure, driver crash)."""


# ---- statistics -------------------------------------------------------------

def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile of `samples`, or None unless at least
    `min_beyond` samples lie strictly above it."""
    if not samples:
        return None
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
    beyond = sum(1 for s in ordered if s > value)
    return value if beyond >= min_beyond else None


def median(samples):
    return statistics.median(samples) if samples else None


def self_times(events):
    """Self time (ms) of each complete event: its duration minus the part of
    its interval its child spans (args.parent == its id) cover."""
    children = defaultdict(list)
    for e in events:
        children[e["args"]["parent"]].append(e)
    out = []
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        spans = sorted((max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
                       for c in children[e["args"]["id"]])
        covered, cursor = 0.0, start
        for lo, hi in spans:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((e, (e["dur"] - covered) / 1000.0))
    return out


# ---- metrics ----------------------------------------------------------------

def ops_of(raw, window):
    return [op for op in raw["ops"] if op[3] == window]


def e2e_metrics(raw):
    """(name, value, unit, samples) rows of the end-to-end metrics, from the
    untraced window. A row whose value is None does not apply."""
    ops = ops_of(raw, 0)
    ms = [op[1] for op in ops if op[2]]
    attempted, failed = attempted_failed(raw)
    rows = [
        ("setup_s", median(raw["setup_s"]), len(raw["setup_s"])),
        ("latency_ms_p50", median(ms), len(ms)),
        ("latency_ms_p90", tail_percentile(ms, 90), len(ms)),
        ("ops_per_s", len(ms) / raw["window_s"][0], len(ms)),
        ("peak_rss_mb", raw["peak_rss_mb"], 1),
        ("psens_abs_err", accuracy(raw), raw["psens_abs_err_sites"]),
        ("error_rate", failed / attempted, attempted),
    ]
    if raw["workload"] == "serve_hot_reads":
        for kind in ("sweep", "ser", "psens"):
            kms = [op[1] for op in ops if op[2] and op[0] == kind]
            rows.append((f"{kind}_req_ms_p50", median(kms), len(kms)))
    units = {**END_TO_END, **END_TO_END_EXTRA}
    return [(name, value, units[name], n) for name, value, n in rows]


def accuracy(raw):
    """Mean |EPP - fault injection| P_sensitized; None where not measured."""
    return raw["psens_abs_err"] if raw["psens_abs_err"] >= 0 else None


def layer_metrics(raw, events):
    """(name, value, unit, samples) rows of the per-layer metrics; samples 0
    means the workload does not exercise that layer (value 0)."""
    by_metric = defaultdict(list)
    for e, self_ms in self_times(events):
        if e["args"]["metric"]:
            by_metric[e["args"]["metric"]].append(self_ms)
    values = {name: (median(v), len(v)) for name, v in by_metric.items()}
    for name, value in raw["counters"].items():
        values[name] = (value, 1)
    if accuracy(raw) is not None:
        values["epp.psens_abs_err"] = (accuracy(raw),
                                       raw["psens_abs_err_sites"])

    def have(name):
        return values.get(name, (None, 0))[0]

    warm, one = have("epp.psens_warm_ms"), have("epp.psens_1t_ms")
    if warm and one:
        values["epp.scaling_1to4"] = (one / warm, 2)
    rtt_sweep, csv_warm = have("serve.rtt_ms.sweep"), have(
        "epp.sweep_csv_warm_ms")
    if rtt_sweep is not None and csv_warm is not None:
        values["serve.overhead_ms"] = (rtt_sweep - csv_warm, 2)
    for kind in ("sweep", "ser", "psens"):
        rtt = have(f"serve.rtt_ms.{kind}")
        loaded = [op[1] for op in ops_of(raw, 0) if op[2] and op[0] == kind]
        if rtt is not None and loaded:
            values[f"serve.queue_ms.{kind}"] = (median(loaded) - rtt,
                                                len(loaded))
    untraced = [op[1] for op in ops_of(raw, 0) if op[2]]
    traced = [op[1] for op in ops_of(raw, 1) if op[2]]
    if untraced and traced:
        values["trace.overhead_ms"] = (median(traced) - median(untraced),
                                       len(traced))
    return [(name, values.get(name, (0.0, 0))[0], unit,
             values.get(name, (0.0, 0))[1])
            for name, unit in PER_LAYER.items()]


def attempted_failed(raw):
    failed = sum(1 for op in raw["ops"] if not op[2]) + raw["failed_checks"]
    return max(len(raw["ops"]), failed, 1), failed


def format_table(header, rows):
    """Human-readable block: one line per metric with value, unit and sample
    count; rows that do not apply print as n/a."""
    lines = [header, f"{'metric':<24} {'value':>14} {'unit':<6} {'n':>6}"]
    for name, value, unit, n in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<24} {shown:>14} {unit:<6} {n:>6}")
    return "\n".join(lines)


def result_line(raw, names, rows):
    """The final JSON line: every metric of `names`, value and unit."""
    attempted, failed = attempted_failed(raw)
    table = {name: (value, unit) for name, value, unit, _ in rows}
    metrics = {}
    for name, unit in names.items():
        value = table[name][0]
        metrics[name] = {"value": float(value), "unit": unit}
    return json.dumps({"correct": failed == 0 and not raw["failures"],
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics})


# ---- build and run ----------------------------------------------------------

def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise Fatal(f"{what} failed (exit {proc.returncode})")


def build():
    """Configures (once) and builds the driver and the sereep CLI from the
    source tree around this directory; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Fatal(f"sereep sources not found under {ROOT}")
    cache = BUILD / "cmake"
    if not (cache / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(cache),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(cache), "-j", jobs, "--target",
               "perfbench_driver", "sereep"], "cmake build")
    return cache / "perfbench_driver", cache / "sereep" / "sereep"


def run_driver(driver, sereep, args, work):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = work / "raw.json"
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work={work}", f"--sereep={sereep}", f"--out={out}"]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        kill_daemons(work)
        raise Fatal(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if code != 0:
        kill_daemons(work)
        raise Fatal(f"driver failed (exit {code})")
    return json.loads(out.read_text())


def kill_daemons(work):
    """Kills serve daemons a killed driver left behind (pids it recorded)."""
    pids = work / "daemon.pids"
    if not pids.is_file():
        return
    for pid in pids.read_text().split():
        try:
            os.kill(int(pid), signal.SIGKILL)
        except (ProcessLookupError, ValueError):
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        t0 = time.monotonic()
        driver, sereep = build()
        build_s = time.monotonic() - t0
        work = BUILD / "work" / args.workload
        raw = run_driver(driver, sereep, args, work)
    except Fatal as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for failure in raw["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    header = (f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} circuit=s38417 "
              f"({raw['sites']} sites, {raw['gates']} gates) "
              f"threads={raw['threads']} build_s={build_s:.1f}")
    rows = e2e_metrics(raw)
    if args.trace:
        trace = work / "trace.json"
        events = json.loads(trace.read_text())["traceEvents"]
        print(format_table(header + f" trace={trace}", rows))
        layer_rows = layer_metrics(raw, events)
        print(format_table("per-layer (traced window and probes)",
                           layer_rows))
        print(result_line(raw, PER_LAYER, layer_rows))
    else:
        print(format_table(header, rows))
        print(result_line(raw, END_TO_END, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
