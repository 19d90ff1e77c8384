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
BATCHED = ("tests/test_grounding.py::TestBatchedPath",
           "tests/test_grounding.py::TestAudioGuidedAttention")
BLOCKED_MFCC = ("tests/test_dsp.py::TestBlockedMfccMatchesReference",)
TIMESYNC_TIES = ("tests/test_decode.py::TestBeamsMatchReference::test_timesync_on_exact_ties",)
LABELSYNC_TIES = ("tests/test_decode.py::TestBeamsMatchReference::test_labelsync_on_exact_ties",)
STATS_FORM = ("tests/test_scenes.py::TestFeatureFormChecks",)
BOTH_FORMS = ("tests/test_scenes.py::TestBothFormsGiveOneInput",)
FFT = ("tests/test_fft.py",)
FFT_ROWS = ("tests/test_fft.py::test_each_row_equals_its_1d_transform_bit_for_bit",)
LABELSYNC_REFERENCE = (
    "tests/test_decode.py::TestBeamsMatchReference::test_labelsync_sequences_and_scores",)
TIMESYNC_REFERENCE = (
    "tests/test_decode.py::TestBeamsMatchReference::test_timesync_sequences_and_scores",)
BLOCK_LATTICE = ("tests/test_ctc.py::TestBlockLatticeMatchesTheChain", *LABELSYNC_REFERENCE)
LABELSYNC_HOLED = (
    "tests/test_decode.py::TestBeamsMatchReference::test_labelsync_on_holed_posteriorgrams",)
GRAVES_STOP = "tests/test_decode.py::TestGravesStop::"
BRUTEFORCE = ("tests/test_ctc.py::TestBlockedBruteforceMatchesReference",)
TRAINING_REFERENCE = ("tests/test_grounding.py::TestTrainingMatchesReference",)
INVARIANCE = ("tests/test_grounding.py::TestBatchInvariance",)
CHECKPOINT_GUARD = "tests/test_cli.py::TestGroundInputValidation::"
IMPORTS = "tests/test_cli.py::TestLazyImports::test_each_command_loads_only_what_it_runs"


def hand_case(text: str) -> str:
    """The node id of one file of `tests/test_textmatrix.py`'s HAND_CASES."""
    escaped = text.encode("unicode_escape").decode("ascii")  # as pytest writes ids
    return f"tests/test_textmatrix.py::test_hand_written_files[{escaped}]"


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
    Mutant("beam width uncapped", "cli.py",
           "    if args.beam is not None and args.beam > MAX_BEAM:\n", "    if False:\n",
           ("tests/test_cli.py::TestCtcCommands::test_beam_wider_than_the_cap_rejected",)),
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
    # batched grounding: masked keys and padded candidate slots
    Mutant("attention keys unmasked", "grounding/model.py",
           "np.where(kmask[:, None, None, :],", "np.where(True,", BATCHED),
    Mutant("padded candidate logits zero", "grounding/model.py",
           "    logits = np.full(cmask.shape, -np.inf)\n",
           "    logits = np.full(cmask.shape, 0.0)\n", BATCHED),
    Mutant("audio projection gradients perturbed", "grounding/model.py",
           "+= (per_scene.T @ audio).reshape(heads, dh, -1)",
           "+= 1.001 * (per_scene.T @ audio).reshape(heads, dh, -1)", BATCHED),
    # one product path per weight, so a scene scores the same in any batch
    Mutant("weight product by a transposed view", "grounding/model.py",
           "wt = np.ascontiguousarray(w.T)", "wt = w.T", INVARIANCE),
    Mutant("one-row input not padded", "grounding/model.py",
           "x @ wt if len(x) > 1 else (np.concatenate((x, x)) @ wt)[:1]", "x @ wt", INVARIANCE),
    Mutant("one-column product by matmul", "grounding/model.py",
           "return (x * w[0]).sum(axis=-1, keepdims=True)", "return x @ w.T", INVARIANCE),
    Mutant("softmax summed pairwise", "grounding/model.py",
           "total = np.cumsum(p, axis=-1)[..., -1:]", "total = p.sum(axis=-1, keepdims=True)",
           INVARIANCE),
    # the CTC lattice, the label-sync children and the blocked front end
    Mutant("prefix mass by max", "ctc.py",
           "mass = np.logaddexp(mass, emit[t] + grow)", "mass = np.maximum(mass, emit[t] + grow)",
           ("tests/test_ctc.py::TestLatticeMatchesReference",
            *LABELSYNC_REFERENCE)),
    Mutant("lattice starts a frame late", "ctc.py",
           "t0 = int(live[0]) if len(live)", "t0 = int(live[0]) + 1 if len(live)",
           BLOCK_LATTICE),
    Mutant("entry-term block shifted a frame", "ctc.py",
           "slice(t0, t_total)", "slice(t0 + 1, t_total + 1)", BLOCK_LATTICE),
    Mutant("block prefix mass by max", "ctc.py",
           "mass = np.logaddexp.reduce(", "mass = np.maximum.reduce(", BLOCK_LATTICE),
    Mutant("brute force lists sequences by key", "ctc.py",
           "for key in keys[np.argsort(first)].tolist():", "for key in keys.tolist():",
           BRUTEFORCE),
    Mutant("brute force sums each block apart", "ctc.py",
           "np.add.at(totals, index, probs)", "totals += np.bincount(index, probs, len(totals))",
           BRUTEFORCE),
    Mutant("repeats chain through their label", "decode.py",
           "grown != last[parents])", "grown == grown)", LABELSYNC_REFERENCE),
    Mutant("label-sync drops the LM token", "decode.py",
           "histories = [histories[j] + token[v] for j, v", "histories = [histories[j] for j, v",
           LABELSYNC_REFERENCE),
    Mutant("normalization bound exclusive", "ctc.py",
           "if slack[worst] > 1e-6:", "if slack[worst] >= 1e-6:",
           ("tests/test_ctc.py::TestPosteriorgramType::test_normalization_bound_is_inclusive",)),
    Mutant("brute-force cap exclusive", "ctc.py",
           "if k ** t_total > BRUTEFORCE_MAX_PATHS:", "if k ** t_total >= BRUTEFORCE_MAX_PATHS:",
           ("tests/test_ctc.py::TestPosteriorgramType::test_bruteforce_cap_is_inclusive",)),
    Mutant("every lattice row counted live", "ctc.py",
           "label[:, entry]) > -np.inf)", "label[:, entry]) >= -np.inf)",
           ("tests/test_ctc.py::TestBlockLatticeMatchesTheChain"
            "::test_entry_terms_skip_the_parents_dead_rows",)),
    Mutant("in-place blank row drops the blank", "ctc.py",
           "        row += lp[t, BLANK]\n", "",
           ("tests/test_ctc.py::TestLatticeMatchesReference", *BLOCK_LATTICE)),
    Mutant("label-sync block cache keyed by depth", "decode.py",
           "block = blocks.get(given)", "block = blocks.get(_depth)", LABELSYNC_HOLED),
    Mutant("all-live shortcut taken with a dead child", "decode.py",
           "-np.inf < partial.min()", "-np.inf <= partial.min()", LABELSYNC_HOLED),
    Mutant("label-sync gathers past the given columns", "decode.py",
           "q_blank, q_label = q_blank[:, live], q_label[:, live]",
           "q_blank, q_label = q_blank[:, given + live], q_label[:, given + live]",
           LABELSYNC_HOLED),
    Mutant("cached label block compacted in place", "decode.py",
           "parents, grown = parents[live].tolist(), grown[live].tolist()",
           "grown[:len(live)] = grown[live]\n"
           "            parents, grown = parents[live].tolist(), grown[:len(live)].tolist()",
           LABELSYNC_HOLED),
    Mutant("input rate unchecked", "dsp.py",
           "    if w.sample_rate != SAMPLE_RATE:\n", "    if False:\n",
           ("tests/test_dsp.py::TestMfcc::test_rejects_wrong_rate",)),
    Mutant("real split sign flipped", "dsp.py",
           "np.subtract(s, zk, out=s)", "np.add(s, zk, out=s)", BLOCKED_MFCC),
    Mutant("block frames reversed", "dsp.py",
           "block = frames[first: first + _BLOCK_FRAMES]",
           "block = frames[first: first + _BLOCK_FRAMES][::-1]", BLOCKED_MFCC),
    Mutant("block's last frame dropped", "dsp.py",
           "block = frames[first: first + _BLOCK_FRAMES]",
           "block = frames[first: first + _BLOCK_FRAMES - 1]", BLOCKED_MFCC),
    Mutant("padded buffer from np.empty", "dsp.py",
           "padded = np.zeros((min(_BLOCK_FRAMES, t_total), spec.fft_size))",
           "padded = np.empty((min(_BLOCK_FRAMES, t_total), spec.fft_size))", BLOCKED_MFCC),
    Mutant("frame view's stride off by one sample", "dsp.py",
           "[:: spec.step_samples]", "[:: spec.step_samples + 1]", BLOCKED_MFCC),
    Mutant("real split writes into z's own storage", "dsp.py",
           "    zk = z[:, fwd]\n    zr = z[:, rev]\n    np.conjugate(zr, out=zr)\n",
           "    zr = np.conjugate(z, out=z)[:, rev]\n    zk = z[:, fwd]\n", BLOCKED_MFCC),
    # label-sync's early stop at Graves' bound
    Mutant("stop on a tie at the bound", "decode.py",
           "reached[kept].max() < best", "reached[kept].max() <= best",
           (GRAVES_STOP + "test_a_tie_at_the_bound_does_not_stop",)),
    Mutant("stop without the slack", "decode.py",
           "reach = slack + ", "reach = 0.0 * slack + ",
           (GRAVES_STOP + "test_slack_covers_rows_that_sum_above_one",)),
    Mutant("slack summed over every row", "decode.py",
           "np.maximum(np.logaddexp.reduce(lp, axis=1), 0.0).sum()",
           "np.logaddexp.reduce(lp, axis=1).sum()",
           (GRAVES_STOP + "test_slack_covers_rows_that_sum_above_one",)),
    Mutant("margin sized with the zero entries", "decode.py",
           "where=lp > -np.inf", "where=lp >= -np.inf",
           (GRAVES_STOP + "test_zero_entries_stay_out_of_the_margin",)),
    Mutant("stop tests the weakest kept child", "decode.py",
           "reached[kept].max()", "reached[kept].min()",
           (GRAVES_STOP + "test_stop_fires_on_a_peaked_input",)),
    # the beams' tie rules
    Mutant("time-sync merge tie to the later parent", "decode.py",
           "(s == stay[i] and j < i)", "(s == stay[i] and j > i)", TIMESYNC_TIES),
    Mutant("time-sync merge tie clause dropped", "decode.py",
           "if s > stay[i] or (s == stay[i] and j < i):", "if s > stay[i]:", TIMESYNC_TIES),
    Mutant("time-sync stay keeps its label on a tie", "decode.py",
           "keep_last = held > cand[:, BLANK]", "keep_last = held >= cand[:, BLANK]",
           TIMESYNC_TIES),
    Mutant("label-sync tie clause dropped", "decode.py",
           "if top > best.score or seq < best.sequence:", "if top > best.score:",
           LABELSYNC_TIES),
    Mutant("partition cut strict", "decode.py",
           "np.flatnonzero(scores >= np.partition(", "np.flatnonzero(scores > np.partition(",
           LABELSYNC_TIES),
    Mutant("label-sync ties go to the larger sequence", "decode.py",
           "seq = min(seqs[parents[c]] + (grown[c],)", "seq = max(seqs[parents[c]] + (grown[c],)",
           LABELSYNC_TIES),
    Mutant("beams rank by score alone", "decode.py",
           "key=lambda h: (-h[0], h[1])", "key=lambda h: -h[0]", LABELSYNC_TIES),
    # the beams' cached LM readers
    Mutant("LM context one token short", "decode.py",
           "context = lm.context(history)", "context = lm.context(history[:-1])",
           TIMESYNC_REFERENCE),
    Mutant("LM rows cached by the first token", "decode.py",
           "            if context not in cache:\n"
           "                cache[context] = ask(context)\n"
           "            return cache[context]\n",
           "            if history[:1] not in cache:\n"
           "                cache[history[:1]] = ask(context)\n"
           "            return cache[history[:1]]\n", TIMESYNC_REFERENCE),
    Mutant("bigram context forgets its token", "lm.py",
           "return history[-1:] if self.order == 2 else ()", "return ()",
           ("tests/test_lm.py::TestContext", *TIMESYNC_REFERENCE)),
    # a count model's order comes from its counts; only from_corpus takes one
    Mutant("order fixed at 2", "lm.py",
           "self.order = 2 if self.bigrams else 1", "self.order = 2",
           ("tests/test_lm.py::TestContext",)),
    Mutant("corpus order unchecked", "lm.py",
           "        if order not in (1, 2):\n", "        if False:\n",
           ("tests/test_lm.py::TestCountLM::test_bad_order_and_alpha",)),
    Mutant("zero reader asks the LM its context", "decode.py",
           "(lambda history: zeros)", "(lambda history: (lm and lm.context(history), zeros)[1])",
           ("tests/test_decode.py::TestLmCalls::test_lm_at_scale_zero_is_never_asked",)),
    Mutant("time-sync asks the root row before any frame", "decode.py",
           "    lp = p.log_probs\n    symbols = np.arange(p.num_symbols)\n",
           "    lp = p.log_probs\n    row(())\n    symbols = np.arange(p.num_symbols)\n",
           ("tests/test_decode.py::TestLmCalls::test_empty_input_asks_no_label_row",)),
    Mutant("LM vocabulary checked only when asked", "decode.py",
           "        if tok != EOS and tok not in lm.tokens:\n", "        if False:\n",
           ("tests/test_cli.py::TestCtcCommands::test_lm_missing_a_label_refused_at_any_length",)),
    Mutant("LM denominators all the unigram table's", "lm.py",
           "np.log(num) - self._log_den[total]", "np.log(num) - self._log_den[0]",
           ("tests/test_lm.py::TestCountLM",)),
    # training and the readers' block checks
    Mutant("gradient not re-zeroed", "grounding/train.py",
           "            grad.fill(0.0)\n", "", TRAINING_REFERENCE),
    Mutant("minibatches padded to the set's width", "grounding/model.py",
           "        n = max(1, int(cmask.sum(axis=1).max()))\n"
           "        m = max(1, int(rmask.sum(axis=1).max()))\n",
           "        n, m = cmask.shape[1], rmask.shape[1]\n", TRAINING_REFERENCE),
    Mutant("Adam step as lr times the ratio", "grounding/train.py",
           "np.multiply(np.divide(m, 1 - b1 ** step, out=tmp), lr, out=tmp)\n"
           "            np.sqrt(np.divide(v, 1 - b2 ** step, out=den), out=den)\n"
           "            den += _EPS\n"
           "            flat -= np.divide(tmp, den, out=tmp)\n",
           "np.divide(m, 1 - b1 ** step, out=tmp)\n"
           "            np.sqrt(np.divide(v, 1 - b2 ** step, out=den), out=den)\n"
           "            den += _EPS\n"
           "            flat -= np.multiply(np.divide(tmp, den, out=tmp), lr, out=tmp)\n",
           TRAINING_REFERENCE),
    Mutant("stats-form finiteness unchecked", "grounding/scene.py",
           "\n                 and np.isfinite(stats).all())", ")", STATS_FORM),
    Mutant("stats-form negative class unchecked", "grounding/scene.py",
           "valid = (min(class_ids) >= 0\n", "valid = (True\n", STATS_FORM),
    Mutant("scene forms may mix", "grounding/scene.py",
           "    if any(point_form):\n", "    if False:\n", STATS_FORM),
    Mutant("checkpoint may repeat a tensor", "grounding/model.py",
           "            if name in tensors:\n", "            if False:\n",
           ("tests/test_cli.py::TestGroundInputValidation::test_repeated_checkpoint_tensor",)),
    # a checkpoint loads only with this build's architecture tensors
    Mutant("checkpoint architecture unchecked", "grounding/model.py",
           "    for name in sorted(names):\n", "    for name in ():\n",
           (f"{CHECKPOINT_GUARD}test_checkpoint_of_two_attention_layers",)),
    Mutant("checkpoint checks only its first architecture tensor", "grounding/model.py",
           "    for name in sorted(names):\n", "    for name in sorted(names)[:1]:\n",
           (f"{CHECKPOINT_GUARD}test_checkpoint_of_two_attention_layers",)),
    # the four-step FFT
    Mutant("four-step factors swapped", "fft.py",
           "    n1, n2, f1, twiddle, f2 = _four_step_tables(n)",
           "    n2, n1, f1, twiddle, f2 = _four_step_tables(n)", FFT),
    Mutant("four-step twiddle conjugated", "fft.py",
           "c = (f1 @ x.reshape(*lead, n1, n2)) * twiddle",
           "c = (f1 @ x.reshape(*lead, n1, n2)) * twiddle.conj()", FFT),
    Mutant("four-step twiddle dropped", "fft.py",
           "c = (f1 @ x.reshape(*lead, n1, n2)) * twiddle", "c = f1 @ x.reshape(*lead, n1, n2)",
           FFT),
    Mutant("four-step output left transposed", "fft.py",
           "return c.swapaxes(-1, -2).reshape(*lead, n)", "return c.reshape(*lead, n)", FFT),
    Mutant("four-step input read column-major", "fft.py",
           "(f1 @ x.reshape(*lead, n1, n2))", "(f1 @ x.reshape(*lead, n2, n1).swapaxes(-1, -2))",
           FFT),
    Mutant("right factor's product reshaped as (..., n2, n1)", "fft.py",
           "@ f2).reshape(*lead, n1, n2)", "@ f2).reshape(*lead, n2, n1)",
           ("tests/test_fft.py::test_matches_radix2_and_numpy_across_lengths",)),
    Mutant("n = 2 right factor as one product", "fft.py",
           "    elif n1 == 1:\n", "    elif False:\n", FFT_ROWS),
    Mutant("DFT tables from raw products", "fft.py",
           "return _roots(m)[np.outer(idx, idx) % m]",
           "return np.exp(-2j * np.pi * np.outer(idx, idx) / m)", FFT),
    # wer's move order: substitution, then insertion, then deletion
    Mutant("wer prefers insertion to substitution", "metrics.py",
           "            elif diag[0] <= left[0] and diag[0] <= up[0]:\n"
           "                left = (diag[0] + 1, diag[1] + 1, diag[2], diag[3])\n"
           "            elif left[0] <= up[0]:\n"
           "                left = (left[0] + 1, left[1], left[2], left[3] + 1)\n",
           "            elif left[0] <= diag[0] and left[0] <= up[0]:\n"
           "                left = (left[0] + 1, left[1], left[2], left[3] + 1)\n"
           "            elif diag[0] <= up[0]:\n"
           "                left = (diag[0] + 1, diag[1] + 1, diag[2], diag[3])\n",
           ("tests/test_metrics.py::TestWerMatchesReference",)),
    # the text-matrix reader: numpy's C reader, else the row walk
    Mutant("text matrix rows counted in total", "textmatrix.py",
           "if data.shape == (t_total, k):", "if data.size == t_total * k:",
           (hand_case("2 2\n1 2 3 4\n\n"),
            "tests/test_textmatrix.py::test_corrupted_files_match_the_reference")),
    Mutant("text matrix shape unchecked", "textmatrix.py",
           "            if data.shape == (t_total, k):\n                return data\n",
           "            return data\n", (hand_case("2 2\n1 2\n\n"),)),
    Mutant("float() error escapes the fast path", "textmatrix.py",
           "        except ValueError:\n            pass\n",
           "        except OverflowError:\n            pass\n", (hand_case("1 1\n0x10\n"),)),
    Mutant("text matrix '#' read as a comment", "textmatrix.py", "comments=None, ", "",
           (hand_case("2 2\n1 2 #x\n3 4\n"),)),
    Mutant("loadtxt asked of a blank first row", "textmatrix.py",
           "if lines and lines[0].split() and not trailing:", "if lines and not trailing:",
           (hand_case("2 2\n\n \n"),)),
    Mutant("row walk's except ValueError narrowed", "textmatrix.py",
           "        except ValueError as exc:\n            raise DataError(f\"{kind} row {i}",
           "        except UnicodeError as exc:\n            raise DataError(f\"{kind} row {i}",
           (hand_case("1 1\n0x10\n"),)),
    Mutant("row walk returns zeros", "textmatrix.py",
           "    return np.array(rows, dtype=float).reshape(t_total, k)\n",
           "    return np.zeros((t_total, k))\n", (hand_case("2 2\n1_0 Infinity\n-nan +inf\n"),)),
    # the chunked generator, the scene writer and the scene readers
    Mutant("retry rng re-seeded", "grounding/scene.py",
           "            while not verify_scene(scene):\n",
           "            while not verify_scene(scene):\n"
           "                rng = np.random.default_rng([config.seed, start + len(scenes), 1])\n",
           ("tests/test_scenes.py::TestGeneratorMatchesReference"
            "::test_rejected_scenes_draw_again",)),
    Mutant("chunk one scene short", "grounding/scene.py",
           "range(first, min(first + _CHUNK, stop))",
           "range(first, min(first + _CHUNK - 1, stop))",
           ("tests/test_scenes.py::TestGeneratorMatchesReference",)),
    Mutant("mentions summed anchor first", "grounding/scene.py",
           "audio_embedding(t, (t, a), rel,", "audio_embedding(t, (a, t), rel,",
           ("tests/test_scenes.py::TestGeneratorMatchesReference::test_scenes_are_identical",)),
    Mutant("normals drawn before uniforms", "grounding/scene.py",
           "        rng.random(out=jitter[j])\n        rng.standard_normal(out=noise[j])\n",
           "        rng.standard_normal(out=noise[j])\n        rng.random(out=jitter[j])\n",
           ("tests/test_scenes.py::TestGeneratorMatchesReference::test_scenes_are_identical",)),
    Mutant("box centers summed pairwise", "grounding/scene.py",
           "by_point.mean(axis=0)", "np.ascontiguousarray(xyz.transpose(0, 2, 1)).mean(axis=2)",
           ("tests/test_scenes.py::TestGeneratorMatchesReference::test_scenes_are_identical",)),
    Mutant("shape features as one product", "grounding/features.py",
           "return (_shape_projection(embed_seed) @ stats[:, :, None])[:, :, 0]",
           "return stats @ _shape_projection(embed_seed).T",
           ("tests/test_scenes.py::TestObjectFeatures",)),
    # the stats form: written seed-free, checked, projected under the reader's seed
    Mutant("cloud statistics' length unchecked", "grounding/features.py",
           "        if stats.shape != (12,):\n"
           "            raise DataError(f\"cloud statistics have length {stats.shape}, "
           "expected 12\")\n", "",
           ("tests/test_scenes.py::TestFeatureStubs::test_baked_feature_dimension_check",)),
    Mutant("stats form written as seed-7 shape features", "grounding/scene.py",
           "                rows = iter(cloud_stats(objects).tolist())\n",
           "                from .features import object_features\n"
           "                rows = iter(object_features(objects, 7).tolist())\n",
           ("tests/test_scenes.py::TestGeneratorMatchesReference"
            "::test_written_bytes_are_identical", *BOTH_FORMS)),
    Mutant("carried statistics projected under seed 7", "grounding/features.py",
           "    stats = cloud_stats(objects)\n",
           "    stats = cloud_stats(objects)\n"
           "    if any(obj.points is None for obj in objects):\n"
           "        embed_seed = 7\n",
           (*BOTH_FORMS, "tests/test_cli.py::TestGroundPipeline"
            "::test_both_forms_evaluate_alike_under_the_models_seed")),
    Mutant("d_audio unbounded", "grounding/scene.py",
           "        if self.d_audio < 1:\n", "        if False:\n",
           ("tests/test_scenes.py::TestGenConfig::test_d_audio",)),
    Mutant("gen writes a whole split at once", "cli.py",
           "(scene for first in range(0, cfg.num_scenes, _CHUNK)\n"
           "                            for scene in generate_scenes(\n"
           "                                cfg, first, min(first + _CHUNK, cfg.num_scenes))),\n",
           "generate_scenes(cfg),\n",
           ("tests/test_cli.py::TestGroundPipeline"
            "::test_gen_keeps_at_most_two_chunks_of_scenes_alive",
            "tests/test_cli.py::TestGroundPipeline"
            "::test_gen_calls_generate_scenes_once_per_chunk")),
    Mutant("an empty scene file is read", "cli.py",
           "    if not count:\n        raise DataError(f\"no scenes in {path}\")\n", "",
           ("tests/test_cli.py::TestGroundPipeline::test_empty_scene_file_is_bad_data",)),
    # eval and infer stream their scene file
    Mutant("evaluate reads the whole iterable first", "grounding/train.py",
           "stream = iter(scenes)", "stream = iter(list(scenes))",
           ("tests/test_grounding.py::TestStreamedEvaluation::test_reads_one_chunk_at_a_time",)),
    Mutant("evaluate scores only the first chunk", "grounding/train.py",
           "while chunk := list(islice(stream, _CHUNK)):",
           "if chunk := list(islice(stream, _CHUNK)):",
           ("tests/test_grounding.py::TestStreamedEvaluation"
            "::test_matches_a_tally_of_scenes_scored_alone",)),
    Mutant("infer keeps the first scene", "cli.py",
           "        if last == args.index:\n", "        if chosen is None:\n",
           ("tests/test_cli.py::TestStreamedSceneFiles::test_infer_grounds_the_chosen_scene",)),
    Mutant("infer stops reading at its scene", "cli.py",
           "            chosen = scene\n", "            chosen = scene\n            break\n",
           ("tests/test_cli.py::TestStreamedSceneFiles"
            "::test_a_bad_line_after_the_scenes_used_is_still_bad_data",)),
    # every scene passes one constructor's checks; the prior is a bare array
    Mutant("scene audio may be non-finite", "grounding/scene.py",
           "        if not np.isfinite(self.audio).all():\n", "        if False:\n",
           ("tests/test_scenes.py::TestSceneValidation::test_audio_must_be_finite",
            "tests/test_cli.py::TestGroundInputValidation::test_nan_audio")),
    Mutant("prior size unchecked", "decode.py",
           "        if prior.shape[0] != p.num_symbols:\n", "        if False:\n",
           ("tests/test_decode.py::TestPrior::test_wrong_size_prior_rejected",)),
    # each command imports only the modules it runs
    Mutant("package imports every submodule", "__init__.py",
           "from .errors import DataError",
           "from . import ctc, decode, dsp, fft, lm, metrics\nfrom .errors import DataError",
           (f"{IMPORTS}[featurize]", f"{IMPORTS}[ground-gen]")),
    Mutant("cli imports numpy at the top", "cli.py",
           "import sys\n\nfrom . import __version__\n",
           "import sys\n\nimport numpy as np\n\nfrom . import __version__\n",
           (f"{IMPORTS}[version]", f"{IMPORTS}[usage-error]")),
    Mutant("dsp imports fft at the top", "dsp.py",
           "from .errors import DataError, UsageError\n",
           "from .errors import DataError, UsageError\nfrom .fft import fft\n",
           (f"{IMPORTS}[analyze-cca]",)),
    Mutant("grounding imports its model eagerly", "grounding/__init__.py",
           "import importlib\n", "import importlib\n\nfrom .model import GroundingModel\n",
           (f"{IMPORTS}[ground-gen]",)),
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
