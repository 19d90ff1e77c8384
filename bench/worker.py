"""The measured process: one fresh interpreter per workload run.

    python3 bench/worker.py MANIFEST MODE SECONDS RESULT

MODE is `setup` (time import + warm-up, then exit), `measure` (closed
loop over the corpus, untraced) or `trace` (alternating untraced and
traced rounds over the trace set).  Only the standard library is
imported before the timed `import speechground`.  Outside the traced
rounds every timed interval is also rescaled to the reference machine
speed by speed.SpeedProbe.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import SpeedProbe


def run_op(cli, op, item, pass_no, records, probe=None, warmup=False):
    """One closed-loop CLI call; stdout and stderr are captured in memory.

    Returns the wall seconds and, with a probe, the seconds rescaled to
    the reference machine speed (else the wall seconds again).
    """
    out, err = io.StringIO(), io.StringIO()
    if probe:
        probe.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    seconds = time.perf_counter() - t0
    seconds, ref_seconds = probe.stop(seconds) if probe else (seconds, seconds)
    lines = out.getvalue().splitlines()
    rec = {"item": item, "pass": pass_no, "kind": op["kind"], "rc": rc,
           "ms": seconds * 1e3, "ref_ms": ref_seconds * 1e3, "err": err.getvalue(),
           "argv": op["argv"], "out": json.loads(lines[-1]) if rc == 0 and lines else None}
    if rc == 0 and op["outputs"]:
        digest = hashlib.sha256()
        for path in op["outputs"]:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        rec["sha"] = digest.hexdigest()
    if warmup:
        rec["warmup"] = True
    records.append(rec)
    return seconds, ref_seconds, rc == 0


def run_item(cli, item, pass_no, records, probe=None, tracer=None):
    """All CLI calls of one item: (wall seconds, reference seconds, all ok)."""
    if tracer is not None:
        tracer.item = item["id"]
    wall = ref = 0.0
    ok = True
    for op in item["ops"]:
        seconds, ref_seconds, good = run_op(cli, op, item["id"], pass_no, records, probe)
        wall += seconds
        ref += ref_seconds
        ok = ok and good
    return wall, ref, ok


def run_wer(cli, manifest, records, pass_no):
    """One `eval wer` of the given items' hypotheses from one pass."""
    spec = manifest["wer"]
    hyps = {}
    for rec in records:
        if rec["pass"] == pass_no and rec["kind"] == spec["kind"] and rec["out"]:
            hyps[rec["item"]] = " ".join(rec["out"]["hyp"])
    ids = [item["id"] for item in manifest["items"]]
    with open(spec["ref"], "w", encoding="utf-8") as fh:
        fh.writelines(item["ref"] + "\n" for item in manifest["items"])
    with open(spec["hyp"], "w", encoding="utf-8") as fh:
        fh.writelines(hyps.get(i, "") + "\n" for i in ids)
    op = {"kind": "wer", "argv": ["eval", "wer", "--ref", spec["ref"], "--hyp", spec["hyp"],
                                  "--json"], "outputs": []}
    seconds = run_op(cli, op, -1, pass_no, records)[0]
    records[-1].update(ids=ids, hyps=[hyps.get(i, "") for i in ids])
    return seconds


def measure(cli, manifest, seconds, records, probe):
    """Closed loop over the corpus for `seconds`, at least one full pass."""
    items = manifest["items"]
    wall_ms, ref_ms = [], []
    start = time.perf_counter()
    count = 0
    while count < len(items) or time.perf_counter() - start < seconds:
        wall, ref, ok = run_item(cli, items[count % len(items)], count // len(items),
                                 records, probe)
        if ok:
            wall_ms.append(wall * 1e3)
            ref_ms.append(ref * 1e3)
        count += 1
    elapsed = time.perf_counter() - start
    if manifest["wer"]:
        run_wer(cli, manifest, records, 0)
    return {"item_ms": wall_ms, "item_ref_ms": ref_ms, "elapsed_s": elapsed}


def trace(cli, manifest, seconds, records, spans_path):
    """Rounds over the trace set: untraced, then traced, until time is up."""
    from tracer import Tracer

    tracer = Tracer()
    subset = manifest["items"][:manifest["trace_items"]]
    rounds = {"untraced": [], "traced": []}
    start = time.perf_counter()
    pass_no = 0
    while not rounds["traced"] or time.perf_counter() - start < seconds:
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.install()
            round_s = sum(run_item(cli, item, pass_no, records,
                                   tracer=tracer if mode == "traced" else None)[0]
                          for item in subset)
            if manifest["wer"]:
                tracer.item = -1
                round_s += run_wer(cli, dict(manifest, items=subset), records, pass_no)
            tracer.uninstall()
            rounds[mode].append(round_s)
            pass_no += 1
    self_sum, root_sum, roots_ok = tracer.self_time_check()
    tracer.save(spans_path)
    return {"rounds": len(rounds["traced"]), "items_per_round": len(subset),
            "untraced_round_s": rounds["untraced"], "traced_round_s": rounds["traced"],
            "calls": tracer.calls, "self_s": tracer.self_s, "total_s": tracer.total_s,
            "work": tracer.work, "self_sum_s": self_sum, "root_sum_s": root_sum,
            "roots_are_cli_main": roots_ok, "spans": spans_path + ".npz"}


def main(argv) -> int:
    manifest_path, mode, seconds, result_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    records = []
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import speechground  # noqa: F401  (timed: part of set-up)
    from speechground import cli
    for op in manifest["warmup"]:
        run_op(cli, op, -1, 0, records, warmup=True)
    setup, setup_ref = probe.stop(time.perf_counter() - t0)
    result = {"setup_s": setup, "setup_ref_s": setup_ref}
    if mode == "measure":
        result.update(measure(cli, manifest, float(seconds), records, probe))
    elif mode == "trace":
        spans = os.path.join(os.path.dirname(result_path), "spans")
        result["trace"] = trace(cli, manifest, float(seconds), records, spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = records
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
