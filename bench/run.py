"""Benchmark of the speechground CLI: four seeded workloads, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is featurize, decode-timesync, decode-labelsync, ground-pipeline or
`all`.  Inputs are synthesized from the seed under .bench_work/, then a
fresh worker process (BLAS/OpenMP threads pinned to 1) imports the
package from src/ and drives `speechground.cli.main(argv)` in a closed
loop with one caller.  Outputs are checked against independent
references.  End-to-end times are rescaled to a reference machine speed
(speed.py); the report prints the wall-clock values beside them.  The
last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

# pinned before numpy is imported here or in any worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_PROBES = 3          # extra fresh processes that only set up
WORKER_TIMEOUT_S = 150    # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_p90": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.NAMES:
        units[f"{name}.calls"] = "calls/item"
        units[f"{name}.self_ms"] = "ms/item"
        if name in tracer.PARENTS:
            units[f"{name}.total_ms"] = "ms/item"
    units.update({"fft.fft.mflop": "Mflop/item", "ctc.ctc_forward.cells": "cells/item",
                  "ctc.ctc_prefix_logprob.cells": "cells/item",
                  "grounding.scene.accept_ratio": "ratio",
                  "trace.untraced_ms_per_item": "ms", "trace.traced_ms_per_item": "ms",
                  "trace.overhead_ms_per_item": "ms"})
    return units


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    env = {"git": _git_sha(), "python": platform.python_version(),
           "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
           "threads": {v: os.environ[v] for v in THREAD_VARS}, "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            def field(name):
                with open(os.path.join(cache, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if index.startswith("index") and field("level") in ("2", "3"):
                env[f"l{field('level')}"] = field("size")
    except (OSError, StopIteration):
        pass
    return env


def _worker(wdir, mode, seconds, env, tag):
    result = os.path.join(wdir, f"result-{tag}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
         os.path.join(wdir, "manifest.json"), mode, str(seconds), result],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(name, seed, seconds, trace, scale="full", plant_nan=False):
    """Run one workload end to end.

    Returns the result JSON object, the report lines and the failed ops.
    """
    wdir = os.path.join(".bench_work", name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    manifest, expect = workloads.build(name, seed, scale, wdir, plant_nan)
    with open(os.path.join(wdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))

    probes = [_worker(wdir, "setup", 0, env, f"setup{i}") for i in range(SETUP_PROBES)]
    main = _worker(wdir, "trace" if trace else "measure", seconds, env, "main")
    ops = [o for p in probes for o in p["ops"]] + main["ops"]
    failures, quality = workloads.check(name, expect, ops, seed)
    setups = [{"wall": p["setup_s"], "ref": p["setup_ref_s"]} for p in probes + [main]]

    lines = [f"# workload {name}  seed={seed}  seconds={seconds}  trace={trace}  "
             f"scale={scale}",
             f"# why: {workloads.WHY[name]}",
             "# env: " + json.dumps(environment(), sort_keys=True)]
    trace_ok = True
    if trace:
        metrics, trace_lines, trace_ok = _layer_metrics(main["trace"])
        lines += trace_lines
    else:
        metrics, e2e_lines = _end_to_end(main, setups, ops, manifest)
        lines += e2e_lines
    attempted, failed = len(ops), len(failures)
    lines.append(f"failed_frac  {failed / attempted:.6f} fraction  ({failed} of {attempted} "
                 f"CLI calls, n={attempted})")
    for key, value in quality.items():
        lines.append(f"{key}  {value}")
    lines.append(f"digest  {workloads.digest(ops)}  (first-pass outputs)")
    for idx in sorted(failures)[:10]:
        o = ops[idx]
        lines.append(f"# FAILED item {o['item']} {o['kind']}: {failures[idx]}")
    result = {"correct": not failures and trace_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    failed_ops = [dict(item=ops[i]["item"], kind=ops[i]["kind"], rc=ops[i]["rc"],
                       reason=reason) for i, reason in sorted(failures.items())]
    return result, lines, failed_ops


def _end_to_end(main, setups, ops, manifest):
    """Metrics from reference-speed times; the wall times go in the report."""
    ref = main["item_ref_ms"] or [0.0]   # no successful item: the run is not correct
    wall = main["item_ms"] or [0.0]
    ref_setup = [s["ref"] for s in setups]
    values = {"setup_s": statistics.median(ref_setup),
              "items_per_s": 1e3 * len(main["item_ref_ms"]) / sum(ref),
              "item_ms_p50": statistics.median(ref), "item_ms_p90": _p90(ref),
              "peak_rss_mb": main["peak_rss_mb"]}
    walls = {"setup_s": statistics.median(s["wall"] for s in setups),
             "items_per_s": len(main["item_ms"]) / main["elapsed_s"],
             "item_ms_p50": statistics.median(wall), "item_ms_p90": _p90(wall)}
    n = len(main["item_ms"])
    counts = {"setup_s": f"n={len(setups)} set-ups, median",
              "items_per_s": f"n={n} items in {main['elapsed_s']:.2f} s",
              "item_ms_p50": f"n={n}", "item_ms_p90": f"n={n}",
              "peak_rss_mb": "n=1 worker process"}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    lines = [f"# times at reference machine speed; wall-clock value in brackets "
             f"(host speed {statistics.median(ref) / statistics.median(wall):.2f} x reference)"]
    for k, v in metrics.items():
        wall_note = f" [wall {walls[k]:.6g}]" if k in walls else ""
        lines.append(f"{k}  {v['value']:.6g} {v['unit']}{wall_note}  ({counts[k]})")
    # per-stage throughputs of a pipeline workload, medians over the passes
    for kind, (metric, scenes) in manifest.get("stages", {}).items():
        ms = [o["ref_ms"] for o in ops
              if o["kind"] == kind and not o.get("warmup") and o["rc"] == 0]
        if ms:
            lines.append(f"{metric}  {scenes / (statistics.median(ms) / 1e3):.6g} 1/s  "
                         f"(n={len(ms)} passes, reference speed)")
    return metrics, lines


def _layer_metrics(tr):
    per_item = tr["rounds"] * tr["items_per_round"]
    idx = {name: i for i, name in enumerate(tracer.NAMES)}
    values = {}
    for name, i in idx.items():
        values[f"{name}.calls"] = tr["calls"][i] / per_item
        values[f"{name}.self_ms"] = tr["self_s"][i] * 1e3 / per_item
        if name in tracer.PARENTS:
            values[f"{name}.total_ms"] = tr["total_s"][i] * 1e3 / per_item
    values["fft.fft.mflop"] = tr["work"][idx["fft.fft"]] / per_item
    for fn in ("ctc.ctc_forward", "ctc.ctc_prefix_logprob"):
        values[f"{fn}.cells"] = tr["work"][idx[fn]] / per_item
    verify = tr["calls"][idx["grounding.scene.verify_scene"]]
    values["grounding.scene.accept_ratio"] = (
        tr["work"][idx["grounding.scene.generate_scenes"]] / verify if verify else 0.0)
    untraced = statistics.median(tr["untraced_round_s"]) * 1e3 / tr["items_per_round"]
    traced = statistics.median(tr["traced_round_s"]) * 1e3 / tr["items_per_round"]
    values.update({"trace.untraced_ms_per_item": untraced,
                   "trace.traced_ms_per_item": traced,
                   "trace.overhead_ms_per_item": traced - untraced})
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    root = tr["total_s"][idx["cli.main"]]
    span_err = abs(tr["self_sum_s"] - tr["root_sum_s"]) / tr["root_sum_s"]
    sum_err = abs(sum(tr["self_s"]) - root) / root
    ok = span_err <= 0.01 and sum_err <= 0.01 and tr["roots_are_cli_main"]
    lines = [f"# traced: {tr['rounds']} rounds x {tr['items_per_round']} items; "
             f"spans in {tr['spans']}",
             f"trace overhead  {traced - untraced:.4g} ms/item  "
             f"(traced {traced:.4g} - untraced {untraced:.4g}, "
             f"{(traced - untraced) / untraced:+.1%})",
             f"self-time check  span self sum / root total - 1 = {span_err:.2e}, "
             f"per-function self sum / cli.main total - 1 = {sum_err:.2e}, "
             f"roots all cli.main: {tr['roots_are_cli_main']}  -> "
             f"{'ok' if ok else 'FAILED (must be within 1%)'}",
             "# layer                                            calls/item   self ms/item  share"]
    root_per_item = root * 1e3 / per_item
    for name in sorted(idx, key=lambda n: -values[f"{n}.self_ms"]):
        if values[f"{name}.calls"]:
            lines.append(f"  {name:<48} {values[f'{name}.calls']:>10.6g} "
                         f"{values[f'{name}.self_ms']:>13.6g} "
                         f"{values[f'{name}.self_ms'] / root_per_item:>6.1%}")
    for key in ("fft.fft.mflop", "ctc.ctc_forward.cells", "ctc.ctc_prefix_logprob.cells",
                "grounding.scene.accept_ratio"):
        lines.append(f"  {key:<48} {values[key]:.6g} {units[key]}")
    return metrics, lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "speechground", "cli.py")):
        print(f"error: no speechground sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines, _ = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
