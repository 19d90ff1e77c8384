"""Span tracing of the package's public functions, installed from outside.

Callers bind names with `from .x import y`, so wrapping the defining
module is not enough: every `speechground.*` module attribute that is
identical to a traced function is replaced, plus the class attribute
`CountLM.cond_logprob`.  Spans are kept in flat arrays in memory and
saved when the run ends.
"""

import importlib
import math
import sys
import time
from array import array

# (module under speechground, function); the order fixes the report order
LAYERS = (
    ("cli", "main"),
    ("dsp", "read_wav"), ("dsp", "normalize_wave"), ("dsp", "mel_filterbank"),
    ("dsp", "mfcc"), ("dsp", "amplitude_spectrum"), ("dsp", "spec_augment"),
    ("dsp", "write_feature_text"), ("dsp", "write_feature_binary"),
    ("fft", "fft"),
    ("ctc", "read_vocab"), ("ctc", "read_posteriorgram"),
    ("ctc", "ctc_forward"), ("ctc", "ctc_prefix_logprob"),
    ("decode", "estimate_prior"), ("decode", "greedy_decode"),
    ("decode", "timesync_beam"), ("decode", "labelsync_beam"),
    ("lm", "read_lm"), ("lm", "CountLM.cond_logprob"),
    ("metrics", "corpus_wer"), ("metrics", "wer"),
    ("grounding.scene", "generate_scenes"), ("grounding.scene", "verify_scene"),
    ("grounding.scene", "write_scenes"), ("grounding.scene", "read_scenes"),
    ("grounding.features", "object_feature_stub"),
    ("grounding.features", "label_embedding"),
    ("grounding.features", "audio_embedding"),
    ("grounding.features", "object_representation"),
    ("grounding.model", "init_grounding_model"), ("grounding.model", "prepare_scene"),
    ("grounding.model", "loss_and_grads"), ("grounding.model", "classify_audio"),
    ("grounding.model", "detect_mentions"), ("grounding.model", "ground"),
    ("grounding.model", "save_checkpoint"), ("grounding.model", "load_checkpoint"),
    ("grounding.train", "train_toy"), ("grounding.train", "evaluate"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)

# functions that call other traced functions, so total and self time differ
PARENTS = (
    "cli.main", "dsp.mfcc", "dsp.amplitude_spectrum", "decode.timesync_beam",
    "decode.labelsync_beam", "metrics.corpus_wer", "grounding.scene.generate_scenes",
    "grounding.scene.write_scenes", "grounding.features.object_representation",
    "grounding.model.prepare_scene", "grounding.model.ground",
    "grounding.model.load_checkpoint", "grounding.train.train_toy",
    "grounding.train.evaluate",
)


def _lattice_cells(args, result):
    """T * (n + 1) cells of one CTC lattice over a length-n target."""
    return args[0].num_frames * (len(args[1]) + 1)


# per-call work measures: name -> f(args, result)
WORK = {
    "fft.fft": lambda args, result: 5.0 * len(result) * math.log2(len(result)) / 1e6,
    "ctc.ctc_forward": _lattice_cells,
    "ctc.ctc_prefix_logprob": _lattice_cells,
    "grounding.scene.generate_scenes": lambda args, result: len(result),
}


class Tracer:
    """Wraps the traced functions; records spans and per-function sums."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.work = [0.0] * n
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        self._stack = []
        self._patches = []   # (owner, attribute, original, wrapper)

    def _wrap(self, idx, fn, work):
        stack, calls, total_s, self_s, acc = (self._stack, self.calls, self.total_s,
                                              self.self_s, self.work)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            items.append(tracer.item)
            frame = [sid, 0.0]
            stack.append(frame)
            ends.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if work is not None:
                acc[idx] += work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every module or class attribute bound to a traced function."""
        if not self._patches:
            wrappers = {}
            for idx, (mod, fn_name) in enumerate(LAYERS):
                owner = importlib.import_module(f"speechground.{mod}")
                cls_name, _, attr = fn_name.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                wrapper = self._wrap(idx, original, WORK.get(NAMES[idx]))
                wrappers[id(original)] = (original, wrapper)
                if cls_name:
                    self._patches.append((owner, attr, original, wrapper))
            for name, module in list(sys.modules.items()):
                if name != "speechground" and not name.startswith("speechground."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((module, attr, value, hit[1]))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """Span columns as numpy arrays, plus the function names."""
        import numpy as np
        return {"names": np.array(NAMES), "name": np.array(self.span_name, np.int32),
                "parent": np.array(self.span_parent, np.int32),
                "item": np.array(self.span_item, np.int32),
                "start": np.array(self.span_start), "end": np.array(self.span_end)}

    def save(self, path: str) -> None:
        import numpy as np
        np.savez(path, **self.spans())

    def self_time_check(self) -> tuple[float, float, bool]:
        """Sum of span self times, sum of root span durations, roots all cli.main.

        Self time is recomputed here from start/end/parent alone, not from
        the running sums, so agreement checks the span tree itself.
        """
        import numpy as np
        cols = self.spans()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        roots = ~nested
        return (float(np.sum(dur - child)), float(np.sum(dur[roots])),
                bool(np.all(cols["name"][roots] == NAMES.index("cli.main"))))
