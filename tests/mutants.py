"""Mutation harness: every seeded mutant of src/ must fail one of its tests.

Each entry of `MUTANTS` names a file under src/speechground/, a text that
occurs in it exactly once, its replacement, and the pytest node ids that
should catch the change.  For each entry the harness copies src/ to a
temporary directory, applies that one replacement, and runs the node ids
in a subprocess whose `speechground` is the mutated copy.  A mutant whose
tests all pass survives.

    python tests/mutants.py [name ...]

With names it runs only those entries.  It first runs every listed node
id on an unmutated copy, which must pass.  It prints one line per mutant
and exits 1 naming each survivor, or any entry that cannot run.  It uses
the standard library only and is a manual tool, not a test: pytest does
not collect it, and `tests/test_mutants.py` checks only that each `old`
text still occurs exactly once.  A change that adds a fast path or a
guard adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/speechground/
    old: str
    new: str
    tests: tuple[str, ...]


SWEEP = ("tests/test_cli.py::TestFlagSweep",)
OVERFLOWING_MODEL = ("tests/test_grounding.py::TestOverflowingModel",
                     "tests/test_cli.py::TestOverflowingCheckpoint")
PRIOR_OVERFLOW = ("tests/test_cli.py::TestPriorCorrectionOverflow",)
VERIFIER = ("tests/test_scenes.py::TestVerifyScene",)

MUTANTS = (
    # grounding inference refuses scores that overflow
    Mutant("grouping scores unchecked", "grounding/model.py",
           "    _require_finite(class_probs, mention_probs)\n", "", OVERFLOWING_MODEL),
    Mutant("candidate scores unchecked", "grounding/model.py",
           "        _require_finite(probs)\n", "", OVERFLOWING_MODEL),
    Mutant("grouping warns on overflow", "grounding/model.py",
           '@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports it instead\n'
           "def _predicted_groupings(", "def _predicted_groupings(", OVERFLOWING_MODEL),
    Mutant("grounding warns on overflow", "grounding/model.py",
           '@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports it instead\n'
           "def _ground_grouped(", "def _ground_grouped(", OVERFLOWING_MODEL),
    Mutant("last Adam step unchecked", "grounding/train.py",
           "    if not np.isfinite(flat).all():\n", "    if False:\n",
           ("tests/test_grounding.py::TestTraining::test_non_finite_last_step_aborts",
            "tests/test_cli.py::TestOverflowingCheckpoint")),
    Mutant("decay period unbounded", "grounding/train.py",
           "min(self.epochs, self.batch_size, self.decay_every) < 1",
           "min(self.epochs, self.batch_size) < 1",
           ("tests/test_grounding.py::TestTraining::test_decay_period_must_be_positive",)),
    Mutant("all -inf softmax row divides by zero", "grounding/model.py",
           "    p /= np.where(total == 0.0, 1.0, total)\n", "    p /= total\n",
           ("tests/test_grounding.py::TestAudioGuidedAttention"
            "::test_softmax_is_the_masked_attention_formula",)),
    Mutant("a handler returns its exit code", "cli.py",
           '    _emit(args, f"PPL={ppl:.6f}", {"command": "eval-ppl", "ppl": ppl})\n',
           '    _emit(args, f"PPL={ppl:.6f}", {"command": "eval-ppl", "ppl": ppl})\n'
           "    return 0\n",
           ("tests/test_cli.py::TestFlagSurface::test_handlers_leave_the_exit_code_to_main",)),
    # left-of and right-of share one strict comparison on a mirrored axis
    Mutant("verifier bound not strict", "grounding/scene.py",
           "hits = [i for i in cands if side * centers[i][0] < bound]",
           "hits = [i for i in cands if side * centers[i][0] <= bound]", VERIFIER),
    Mutant("right-of tested as left-of", "grounding/scene.py",
           'side = 1.0 if relation == "left-of" else -1.0', "side = 1.0", VERIFIER),
    Mutant("audio noise scaled", "grounding/scene.py",
           "_AUDIO_NOISE = 0.05\n", "_AUDIO_NOISE = 0.5\n",
           ("tests/test_scenes.py::TestGeneratorMatchesReference::test_scenes_are_identical",
            "tests/test_cli.py::TestGroundPipeline::test_gen_output_is_pinned")),
    # the time-sync prior correction and both beams' overflow
    Mutant("prior correction unbounded", "decode.py",
           "    if not np.all(np.isfinite(p.num_frames * shift)):\n", "    if False:\n",
           PRIOR_OVERFLOW),
    Mutant("time-sync warns on overflow", "decode.py",
           '@np.errstate(over="ignore")\ndef timesync_beam(', "def timesync_beam(",
           PRIOR_OVERFLOW),
    Mutant("label-sync warns on overflow", "decode.py",
           '@np.errstate(over="ignore")\ndef labelsync_beam(', "def labelsync_beam(",
           PRIOR_OVERFLOW),
    # the non-finite option checks that the flag sweep stands behind
    Mutant("fusion scales may be infinite", "decode.py",
           "0 <= scale < np.inf for scale", "0 <= scale for scale", SWEEP),
    Mutant("learning rate may be infinite", "grounding/train.py",
           "if not 0 <= self.learning_rate < np.inf:", "if not 0 <= self.learning_rate:",
           SWEEP),
    # the denominator check refuses an infinite alpha too, so only the sign shows
    Mutant("LM alpha unchecked", "lm.py",
           "        if not 0 <= self.alpha < np.inf:\n", "        if False:\n", SWEEP),
    Mutant("temperature may be infinite", "selfsup.py",
           "if not 0 < self.temperature < np.inf:", "if not 0 < self.temperature:", SWEEP),
    Mutant("CCA reg may be infinite", "selfsup.py",
           "if not 0 <= reg < np.inf:", "if not 0 <= reg:", SWEEP),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for `tests`, importing `speechground` from `src`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return 1  # a mutant that hangs its tests is caught


def copy_src(dest: Path, mutant: Mutant | None = None) -> Path:
    """A copy of src/ under `dest`, with `mutant` applied if given."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = dest / "speechground" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                             f"times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return dest


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in MUTANTS}:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(copy_src(src), tests) != 0:
            print("the listed tests fail on the unmutated source")
            return 1
        survivors = []
        for mutant in chosen:
            code = run_tests(copy_src(src, mutant), mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"cannot run (pytest exit {code})")
            print(f"{verdict:>8}  {mutant.name}")
            if code != 1:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants not killed: {survivors}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
