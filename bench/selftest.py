"""Self-test of the benchmark itself: python3 bench/selftest.py

Runs a tiny configuration of every workload, untraced and traced, and
checks that each emits every metric BENCHMARK.json names with its unit.
The decode workloads get one planted posteriorgram row of NaN: the CLI
must reject it with exit code 2, the run must count it as failed and
finish anyway.  Last, the benchmark copied alone (BENCHMARK.json plus
bench/, no sources) must exit non-zero without printing a result.
Exit code 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

PLANTED = {"decode-timesync": {"loss", "greedy", "time-sync"},
           "decode-labelsync": {"label-sync"}}


def _check_run(name, trace, spec, problems):
    result, _, failed_ops = run.run_workload(name, seed=7, seconds=1, trace=trace,
                                             scale="tiny", plant_nan=name in PLANTED)
    tag = f"{name} trace={trace}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    if name in PLANTED:
        # the planted bad item is item 1; every failure must be it, rejected with exit 2
        stray = [f for f in failed_ops
                 if f["item"] != 1 or f["rc"] != 2 or f["kind"] not in PLANTED[name]]
        if not failed_ops or stray or result["correct"]:
            problems.append(f"{tag}: planted NaN row not counted as exactly the "
                            f"expected failures: {failed_ops[:3]}")
    elif result["failed"] or not result["correct"]:
        problems.append(f"{tag}: unexpected failures {failed_ops[:3]}")
    print(f"{tag}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", flush=True)


def _check_bare(problems):
    """Without the package sources the benchmark must fail and print no result."""
    bare = os.path.join(".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "featurize",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare benchmark exited {proc.returncode} with output "
                        f"{proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}", flush=True)


def main() -> int:
    os.chdir(run.ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (0, 1):
            _check_run(name, trace, spec, problems)
    _check_bare(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
