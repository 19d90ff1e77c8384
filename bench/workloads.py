"""The four workloads: why each exists, its seeded inputs, and its output checks.

A workload is a corpus of items; an item is the list of CLI calls (ops)
one user request makes.  `build` synthesizes the inputs under the work
directory and returns the manifest the worker runs plus what the checks
need; `check` turns the worker's op records into per-op failures.
"""

import hashlib
import json
import os

import numpy as np

import oracles
import synth

WHY = {
    "featurize": (
        "dsp and fft do nearly all the work here and none in any other "
        "workload, so front-end gains show undiluted"),
    "decode-timesync": (
        "time-sync beam with bigram LM fusion and prior correction on "
        "K=30, T=40-150; also long-target CTC loss and the text readers"),
    "decode-labelsync": (
        "label-sync prefix beam on short K=8 commands (T=8-14): hundreds of "
        "ctc_prefix_logprob and ctc_forward calls per utterance, no dsp"),
    "ground-pipeline": (
        "the only workload in grounding.*: gen, batched training with "
        "Adam, then one-scene-at-a-time eval with predicted grouping"),
}
NAMES = tuple(WHY)

# corpus geometry per scale; "tiny" is the self-test configuration
SIZES = {
    "full": {"featurize": {"items": 100, "seconds": (1.0, 10.0), "trace_items": 10},
             "decode-timesync": {"items": 100, "frames": (40, 150), "trace_items": 5},
             "decode-labelsync": {"items": 100, "frames": (8, 14), "trace_items": 10},
             "ground-pipeline": {"train": 600, "dev": 1000, "epochs": 10, "trace_items": 1}},
    "tiny": {"featurize": {"items": 4, "seconds": (1.0, 2.0), "trace_items": 2},
             "decode-timesync": {"items": 3, "frames": (40, 60), "trace_items": 2},
             "decode-labelsync": {"items": 4, "frames": (8, 10), "trace_items": 2},
             "ground-pipeline": {"train": 300, "dev": 200, "epochs": 6, "trace_items": 1}},
}

# criterion-9 thresholds that every `ground eval` must meet
GROUND_THRESHOLDS = {"audio_accuracy": 0.95, "mention_f1": 0.90, "accuracy": 0.90}
MASK_FLAGS = {"max_time": 20, "max_freq": 4, "time_masks": 2, "freq_masks": 2}


def _op(kind, argv, outputs=()):
    return {"kind": kind, "argv": [str(a) for a in argv] + ["--json"],
            "outputs": list(outputs)}


def build(name: str, seed: int, scale: str, wdir: str, plant_nan: bool = False):
    """Write the inputs of one workload; return (manifest, expect)."""
    size = SIZES[scale][name]
    make = {"featurize": _build_featurize, "decode-timesync": _build_timesync,
               "decode-labelsync": _build_labelsync,
               "ground-pipeline": _build_ground}[name]
    manifest, expect = make(seed, size, wdir, plant_nan)
    manifest.update(workload=name, trace_items=min(size["trace_items"],
                                                  len(manifest["items"])))
    return manifest, expect


# --- featurize -------------------------------------------------------------

def _featurize_op(rng_seq, seed, index, seconds, wdir, tag):
    wav = os.path.join(wdir, f"{tag}{index}.wav")
    samples = synth.voiced_signal(np.random.default_rng(rng_seq), seconds)
    synth.write_wav(wav, samples)
    # full analysis windows after pre-emphasis drops one sample
    frames = (samples.size - 1 - oracles.WINDOW) // oracles.STEP + 1
    binary = index % 2 == 1
    out = os.path.join(wdir, f"{tag}{index}.{'bin' if binary else 'txt'}")
    mask_seed = int(np.random.default_rng([seed, 3, index]).integers(2 ** 31))
    argv = ["featurize", "--input", wav, "--output", out, "--augment",
            "--tm", MASK_FLAGS["max_time"], "--fm", MASK_FLAGS["max_freq"],
            "--tm-count", MASK_FLAGS["time_masks"],
            "--fm-count", MASK_FLAGS["freq_masks"], "--seed", mask_seed]
    if binary:
        argv.append("--binary")
    return _op("featurize", argv, [out]), {"wav": wav, "out": out, "mask_seed": mask_seed,
                                           "frames": frames}


def _build_featurize(seed, size, wdir, plant_nan):
    lengths = synth.spread(np.random.default_rng([seed, 1]), size["items"], *size["seconds"])
    items, expect = [], []
    for i, secs in enumerate(lengths):
        op, exp = _featurize_op([seed, 2, i], seed, i, secs, wdir, "utt")
        items.append({"id": i, "ops": [op]})
        expect.append(exp)
    warm, _ = _featurize_op([seed, 4], seed, 0, 1.0, wdir, "warm")
    return {"items": items, "warmup": [warm], "wer": None}, expect


# --- decode ----------------------------------------------------------------

def _decode_corpus(seed, size, wdir, grammar, lm_sentences, words_per_frame,
                   plant_nan):
    """Vocabulary, LM counts and one confusable posteriorgram per reference."""
    vocab = synth.grammar_vocab(grammar)
    k = len(vocab) + 1
    paths = {"vocab": os.path.join(wdir, "vocab.txt"), "lm": os.path.join(wdir, "lm.txt"),
             "ref": os.path.join(wdir, "ref.txt"), "hyp": os.path.join(wdir, "hyp.txt")}
    synth.write_vocab(paths["vocab"], vocab)
    synth.write_lm_counts(paths["lm"], synth.lm_counts(
        np.random.default_rng([seed, 10]), grammar, lm_sentences))

    def utterance(rng, frames, path, nan_row=-1):
        n = max(1, min(int(round(frames * rng.uniform(*words_per_frame))),
                       (frames + 1) // 2))
        words = synth.sentence_of_length(rng, grammar, n)
        labels = [vocab.index(w) + 1 for w in words]
        log_probs = synth.confusable_posteriorgram(rng, labels, frames, k)
        synth.write_posteriorgram(path, log_probs, nan_row)
        return {"post": path, "words": words, "log_probs": log_probs}

    frames = np.round(synth.spread(np.random.default_rng([seed, 12]), size["items"],
                                   *size["frames"])).astype(int)
    corpus = []
    for i, t in enumerate(frames):
        nan_row = int(t) // 2 if plant_nan and i == 1 else -1
        corpus.append(utterance(np.random.default_rng([seed, 13, i]), int(t),
                                os.path.join(wdir, f"utt{i}.post"), nan_row))
    warm = utterance(np.random.default_rng([seed, 14]), int(size["frames"][0]),
                     os.path.join(wdir, "warm.post"))
    return vocab, paths, corpus, warm


def _build_timesync(seed, size, wdir, plant_nan):
    vocab, paths, corpus, warm = _decode_corpus(
        seed, size, wdir, synth.COMMAND_GRAMMAR, 300, (1 / 5.5, 1 / 4.0), plant_nan)
    prior_dir = os.path.join(wdir, "prior")
    os.makedirs(prior_dir)
    prior_rng = np.random.default_rng([seed, 11])
    for j in range(8):
        t = int(prior_rng.integers(60, 121))
        words = synth.sentence_of_length(prior_rng, synth.COMMAND_GRAMMAR, t // 5)
        synth.write_posteriorgram(
            os.path.join(prior_dir, f"p{j}.post"), synth.confusable_posteriorgram(
                prior_rng, [vocab.index(w) + 1 for w in words], t, len(vocab) + 1))

    def ops(u):
        common = ["--posteriors", u["post"], "--vocab", paths["vocab"]]
        return [_op("loss", ["ctc", "loss", *common, "--labels", " ".join(u["words"])]),
                _op("greedy", ["ctc", "decode", "--mode", "greedy", *common]),
                _op("time-sync", ["ctc", "decode", "--mode", "time-sync", *common,
                                  "--beam", 8, "--lm", paths["lm"], "--lm-scale", 0.3,
                                  "--prior-from", prior_dir, "--prior-scale", 0.3])]

    manifest = {"items": [{"id": i, "ops": ops(u), "ref": " ".join(u["words"])}
                          for i, u in enumerate(corpus)],
                "warmup": ops(warm),
                "wer": {"ref": paths["ref"], "hyp": paths["hyp"], "kind": "time-sync"}}
    return manifest, {"vocab": vocab, "corpus": corpus}


def _build_labelsync(seed, size, wdir, plant_nan):
    vocab, paths, corpus, warm = _decode_corpus(
        seed, size, wdir, synth.SHORT_GRAMMAR, 200, (1 / 4.0, 1 / 3.0), plant_nan)

    def ops(u):
        return [_op("label-sync", ["ctc", "decode", "--mode", "label-sync",
                                   "--posteriors", u["post"], "--vocab", paths["vocab"],
                                   "--beam", 4, "--lm", paths["lm"], "--lm-scale", 0.3])]

    manifest = {"items": [{"id": i, "ops": ops(u), "ref": " ".join(u["words"])}
                          for i, u in enumerate(corpus)],
                "warmup": ops(warm),
                "wer": {"ref": paths["ref"], "hyp": paths["hyp"], "kind": "label-sync"}}
    return manifest, {"vocab": vocab, "corpus": corpus}


# --- ground ----------------------------------------------------------------

def _ground_ops(gdir, seed, train, dev, epochs):
    data, model = os.path.join(gdir, "train.jsonl"), os.path.join(gdir, "model.ckpt")
    dev_path = os.path.join(gdir, "dev.jsonl")
    return [_op("gen", ["ground", "gen", "--out", gdir, "--train-scenes", train,
                        "--dev-scenes", dev, "--seed", seed], [data, dev_path]),
            _op("train", ["ground", "train", "--data", data, "--out", model,
                          "--epochs", epochs, "--batch", 32, "--seed", seed, "--quiet"],
                [model]),
            _op("eval", ["ground", "eval", "--model", model, "--data", dev_path])]


def _build_ground(seed, size, wdir, plant_nan):
    gen_seed = seed % 1_000_000
    ops = _ground_ops(os.path.join(wdir, "scenes"), gen_seed, size["train"],
                      size["dev"], size["epochs"])
    warm = _ground_ops(os.path.join(wdir, "warm"), gen_seed, 40, 40, 1)
    stages = {"gen": ("gen_scenes_per_s", size["train"] + size["dev"]),
              "train": ("train_scene_epochs_per_s", size["train"] * size["epochs"]),
              "eval": ("eval_scenes_per_s", size["dev"])}
    return {"items": [{"id": 0, "ops": ops}], "warmup": warm, "wer": None,
            "stages": stages}, None


# --- checks ----------------------------------------------------------------

def digest(ops) -> str:
    """Hash of every first-pass output, so two runs of one commit compare."""
    first = [(o["item"], o["kind"], o["rc"], o["out"], o.get("sha"))
             for o in ops if o["pass"] == 0 and not o.get("warmup")]
    return hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]


def check(name: str, expect, ops, seed: int) -> tuple[dict, dict]:
    """Per-op failure reasons (keyed by op index) and the quality summary."""
    failures: dict[int, str] = {}
    first: dict[tuple, dict] = {}
    for idx, o in enumerate(ops):
        if o["rc"] != 0:
            failures[idx] = f"exit code {o['rc']}: {o['err'].strip()[-200:]}"
            continue
        key = (o["item"], o["kind"], o.get("warmup", False))
        seen = first.setdefault(key, o)
        if (seen["out"], seen.get("sha")) != (o["out"], o.get("sha")):
            failures[idx] = "output differs from an earlier pass over the same input"
    checker = {"featurize": _check_featurize, "decode-timesync": _check_decode,
               "decode-labelsync": _check_decode,
               "ground-pipeline": _check_ground}[name]
    quality = checker(expect, ops, failures, seed)
    return failures, quality


def _check_featurize(expect, ops, failures, seed):
    measured = [i for i, o in enumerate(ops) if not o.get("warmup") and i not in failures]
    for i in measured:
        o = ops[i]
        frames = expect[o["item"]]["frames"]
        if (o["out"]["frames"], o["out"]["dim"]) != (frames, 13):
            failures[i] = f"shape {o['out']['frames']}x{o['out']['dim']}, expected {frames}x13"
    # one output file per run against the numpy rfft reference
    if not measured:
        return {"reference_item": None}
    items = sorted({ops[i]["item"] for i in measured})
    item = items[seed % len(items)]
    exp = expect[item]
    want = oracles.apply_masks(
        oracles.reference_mfcc(oracles.read_wav_samples(exp["wav"])), exp["mask_seed"],
        MASK_FLAGS["max_time"], MASK_FLAGS["max_freq"], MASK_FLAGS["time_masks"],
        MASK_FLAGS["freq_masks"])
    got = oracles.read_feature_file(exp["out"])
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf
    if not err <= 1e-9:
        for i in measured:
            if ops[i]["item"] == item:
                failures[i] = f"differs from the rfft reference by {err:.3g}"
    return {"reference_item": item, "reference_max_abs_err": err}


def _check_decode(expect, ops, failures, seed):
    vocab = set(expect["vocab"])
    corpus = expect["corpus"]
    losses = {}   # reference loss per item, computed once
    wer_ops = []
    for i, o in enumerate(ops):
        if i in failures or o.get("warmup"):
            continue
        if o["kind"] == "wer":
            wer_ops.append(i)
            continue
        u = corpus[o["item"]]
        if o["kind"] == "loss":
            if o["item"] not in losses:
                losses[o["item"]] = -oracles.ctc_logprob(
                    u["log_probs"], [expect["vocab"].index(w) + 1 for w in u["words"]])
            want = losses[o["item"]]
            if not abs(o["out"]["loss"] - want) <= 1e-9 * max(1.0, abs(want)):
                failures[i] = f"loss {o['out']['loss']!r} != reference {want!r}"
            continue
        hyp = o["out"]["hyp"]
        if not set(hyp) <= vocab:
            failures[i] = f"hypothesis tokens outside the vocabulary: {sorted(set(hyp) - vocab)}"
        elif o["kind"] == "greedy" and hyp != [expect["vocab"][v - 1] for v in
                                               oracles.greedy_labels(u["log_probs"])]:
            failures[i] = "greedy hypothesis differs from the argmax-collapse reference"
    if not wer_ops:
        return {"wer": None}
    for i in wer_ops:
        refs = [corpus[item]["words"] for item in ops[i]["ids"]]
        errors = sum(oracles.edit_distance(r, h.split()) for r, h in zip(refs, ops[i]["hyps"]))
        words = sum(len(r) for r in refs)
        out = ops[i]["out"]
        if (out["ref_length"], out["substitutions"] + out["deletions"] + out["insertions"]) \
                != (words, errors):
            failures[i] = f"WER counts disagree with the reference edit distance {errors}/{words}"
    out = ops[wer_ops[0]]["out"]
    return {"wer": out["wer"], "ref_words": out["ref_length"]}


def _check_ground(expect, ops, failures, seed):
    report = None
    for i, o in enumerate(ops):
        if i in failures or o.get("warmup") or o["kind"] != "eval":
            continue
        low = {k: o["out"][k] for k, bound in GROUND_THRESHOLDS.items()
               if not o["out"][k] >= bound}
        if low:
            failures[i] = f"below the criterion-9 thresholds: {low}"
        if report is None:
            report = o["out"]
    if report is None:
        return {"ground_acc": None}
    return {"ground_acc": report["accuracy"], "audio_accuracy": report["audio_accuracy"],
            "mention_f1": report["mention_f1"], "dev_scenes": report["num_scenes"]}
