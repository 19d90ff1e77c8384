"""Release gate: one test per advertised guarantee, one verdict line each.

Each criterion prints "criterion N: PASS/FAIL ..." before asserting, so
the verdict always appears in the report (run with -s to see all lines).
Tolerances and instance counts here are the package's published bounds;
do not loosen them to make a red criterion green.
"""

import math
import time

import numpy as np

from speechground.cli import main as cli_main
from speechground.ctc import (Posteriorgram, bruteforce_distribution,
                              ctc_backward, ctc_bruteforce, ctc_forward,
                              ctc_prefix_logprob)
from speechground.decode import (DecodeConfig, greedy_decode, labelsync_beam,
                                 timesync_beam)
from speechground.dsp import (FeatureMatrix, FrameSpec, MaskSpec, Waveform,
                              amplitude_spectrum, hz_to_mel, mel_filterbank,
                              mfcc, spec_augment)
from speechground.grounding import (GenConfig, GroundingConfig,
                                    GroundingFailure, SyntheticScene,
                                    audio_guided_attention, evaluate,
                                    generate_scenes, gradient_check, ground,
                                    init_grounding_model, train_toy)
from speechground.lm import UniformLM, lm_perplexity
from speechground.metrics import corpus_wer, wer
from speechground.selfsup import (CodebookUsage, ContrastiveBatch, cca_corrs,
                                  contrastive_loss, diversity_loss,
                                  mutual_information)
from tests.test_ctc import all_sequences, random_posteriorgram
from tests.test_decode import (FLIP_VOCAB, flip_instance, flip_lm,
                               oracle_maxpath, oracle_sum_argmax)
from tests.test_dsp import naive_amplitude_spectrum, naive_mfcc
from tests.test_grounding import SMALL, rand_params


def verdict(num, problems, note=""):
    """Print the one-line result, then fail the test if anything broke."""
    status = "FAIL" if problems else "PASS"
    detail = problems[0] if problems else note
    print(f"criterion {num}: {status} {detail}".rstrip())
    assert not problems, "; ".join(problems)


def excess(got, want, rtol, atol):
    """Largest tolerance violation, <= 0 when everything is within bounds."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) - atol - rtol * np.abs(want)))


def test_criterion_01_forward_matches_bruteforce():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    problems = []
    worst_brute = worst_pair = 0.0
    for i in range(500):
        frames = int(rng.integers(1, 9))
        labels = int(rng.integers(1, 4))
        p = random_posteriorgram(rng, frames, labels + 1)
        target = tuple(int(v) for v in
                       rng.integers(1, labels + 1, size=int(rng.integers(0, 5))))
        _, fwd = ctc_forward(p, target)
        _, bwd = ctc_backward(p, target)
        brute = ctc_bruteforce(p, target)
        if brute == 0.0:
            # only targets longer than the frame count are infeasible here
            if fwd != -np.inf or bwd != -np.inf:
                problems.append(f"instance {i}: infeasible target scored {fwd}")
            continue
        worst_brute = max(worst_brute, abs(fwd - math.log(brute)))
        worst_pair = max(worst_pair, abs(fwd - bwd))
    elapsed = time.monotonic() - start
    if worst_brute > 1e-10:
        problems.append(f"forward vs brute force off by {worst_brute:.3g} (> 1e-10)")
    if worst_pair > 1e-8:
        problems.append(f"forward vs backward off by {worst_pair:.3g} (> 1e-8)")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    verdict(1, problems,
            f"500 instances, max |fwd - log brute| = {worst_brute:.2e}, "
            f"max |fwd - bwd| = {worst_pair:.2e}, {elapsed:.1f}s")


def test_criterion_02_sequence_mass_sums_to_one():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        frames = int(rng.integers(1, 7))
        labels = int(rng.integers(1, 4))
        p = random_posteriorgram(rng, frames, labels + 1)
        total = math.fsum(math.exp(ctc_forward(p, seq)[1])
                          for seq in all_sequences(labels, frames))
        worst = max(worst, abs(total - 1.0))
    problems = [] if worst <= 1e-8 else \
        [f"total mass off by {worst:.3g} (> 1e-8)"]
    verdict(2, problems, f"100 instances, max |mass - 1| = {worst:.2e}")


def test_criterion_03_prefix_mass_matches_suffix_summation():
    rng = np.random.default_rng(1003)
    problems = []
    worst = 0.0
    for i in range(200):
        frames = int(rng.integers(1, 7))
        labels = int(rng.integers(1, 4))
        p = random_posteriorgram(rng, frames, labels + 1)
        prefix = tuple(int(v) for v in
                       rng.integers(1, labels + 1,
                                    size=int(rng.integers(0, frames + 1))))
        mass = math.fsum(prob for seq, prob in bruteforce_distribution(p).items()
                         if seq[:len(prefix)] == prefix)
        got = ctc_prefix_logprob(p, prefix)
        if mass == 0.0:
            if got != -np.inf:
                problems.append(f"instance {i}: empty prefix mass scored {got}")
            continue
        worst = max(worst, abs(got - math.log(mass)))
    if worst > 1e-10:
        problems.append(f"prefix mass off by {worst:.3g} (> 1e-10)")
    verdict(3, problems, f"200 instances, max deviation {worst:.2e}")


def test_criterion_04_exhaustive_beams_are_exact():
    rng = np.random.default_rng(1004)
    problems = []
    for i in range(100):
        p = random_posteriorgram(rng, int(rng.integers(1, 7)),
                                 int(rng.integers(1, 4)) + 1)
        want, _ = oracle_maxpath(p)
        got = timesync_beam(p, DecodeConfig(beam_width=5000)).sequence
        if got != want:
            problems.append(f"timesync instance {i}: {got} != {want}")
            break
    for i in range(100):
        p = random_posteriorgram(rng, int(rng.integers(1, 7)),
                                 int(rng.integers(1, 4)) + 1)
        want, want_score = oracle_sum_argmax(p)
        hyp = labelsync_beam(p, DecodeConfig(beam_width=1000))
        if hyp.sequence != want or abs(hyp.score - want_score) > 1e-9:
            problems.append(f"labelsync instance {i}: {hyp.sequence} != {want}")
            break
    mismatches = 0
    for _ in range(1000):
        p = random_posteriorgram(rng, int(rng.integers(1, 7)),
                                 int(rng.integers(1, 4)) + 1)
        if timesync_beam(p, DecodeConfig(beam_width=1)).sequence != greedy_decode(p):
            mismatches += 1
    if mismatches:
        problems.append(f"width-1 timesync left greedy on {mismatches}/1000 instances")
    verdict(4, problems,
            "max-path and sum-path oracles matched on 100 instances each, "
            "width-1 equals greedy on 1000")


def test_criterion_05_fusion_flips_at_derived_scale():
    p = flip_instance()
    lm = flip_lm()
    grid = np.round(np.arange(0.0, 0.2001, 0.01), 10)
    winners = [timesync_beam(p, DecodeConfig(beam_width=64, lm_scale=float(lam)),
                             lm=lm, vocab=FLIP_VOCAB).sequence
               for lam in grid]
    # max-path fusion: ln(.54/.45) = lam * (ln p(b|a) - ln p(a|a))
    threshold = math.log(1.2) / math.log(6.0)
    flips = [i for i in range(1, len(winners)) if winners[i] != winners[i - 1]]
    problems = []
    if winners[0] != (1, 1) or winners[-1] != (1, 2):
        problems.append(f"endpoints decoded as {winners[0]} and {winners[-1]}")
    elif len(flips) != 1:
        problems.append(f"decision changed {len(flips)} times across the grid")
    elif not grid[flips[0] - 1] < threshold < grid[flips[0]]:
        problems.append(f"flip at {grid[flips[0]]:.2f} brackets no threshold")
    elif abs(grid[flips[0]] - threshold) > 0.01:
        problems.append(
            f"flip at {grid[flips[0]]:.2f} is over one grid step from {threshold:.4f}")
    verdict(5, problems,
            f"decision flips once at scale {grid[flips[0]]:.2f}, "
            f"derived threshold {threshold:.4f}")


def test_criterion_06_front_end_oracles():
    rng = np.random.default_rng(1006)
    problems = []
    spec = FrameSpec(step_samples=32, window_samples=48, fft_size=64)
    worst = -np.inf
    for _ in range(200):
        frame = rng.standard_normal(48)
        worst = max(worst, excess(amplitude_spectrum(frame, spec),
                                  naive_amplitude_spectrum(frame, spec),
                                  rtol=1e-9, atol=1e-12))
    if worst > 0:
        problems.append(f"amplitude spectrum exceeds 1e-9 relative by {worst:.3g}")

    # The warping anchors are mutually inconsistent: the exact
    # 2595*log10(1 + f/700) curve pins 700 Hz at 781.173661 (held to
    # 1e-6 by the unit tests) but puts 1000 Hz at 999.985537, outside
    # the 1000 +/- 0.01 anchor checked here.  The 1127*ln variant would
    # land inside this anchor yet misses the 700 Hz pin by 3.3e-3.  The
    # exact form is kept, so this clause fails and stays red.
    mel = hz_to_mel(1000.0)
    if abs(mel - 1000.0) > 0.01:
        problems.append(
            f"hz_to_mel(1000) = {mel:.6f}, off the 1000 +/- 0.01 anchor "
            f"by {abs(mel - 1000.0):.6f}")

    sr = 16000
    tone_spec = FrameSpec(step_samples=80, window_samples=200, fft_size=256)
    fb = mel_filterbank(tone_spec, num_filters=20)
    worst_mfcc = -np.inf
    for _ in range(20):
        t = np.arange(1000) / sr
        wave = Waveform(
            rng.uniform(0.1, 0.9) * np.sin(
                2 * np.pi * rng.uniform(100.0, 7000.0) * t + rng.uniform(0, 2 * np.pi)),
            sr)
        worst_mfcc = max(worst_mfcc, excess(mfcc(wave, tone_spec, fb, 13).data,
                                            naive_mfcc(wave, tone_spec, fb, 13),
                                            rtol=1e-9, atol=1e-12))
    if worst_mfcc > 0:
        problems.append(f"mfcc exceeds 1e-9 relative by {worst_mfcc:.3g}")

    feats = FeatureMatrix(rng.standard_normal((60, 26)))
    masks = MaskSpec(max_time_mask=10, max_freq_mask=4,
                     num_time_masks=2, num_freq_masks=2, seed=3)
    if spec_augment(feats, masks).data.tobytes() != \
            spec_augment(feats, masks).data.tobytes():
        problems.append("masking with a fixed seed is not byte-reproducible")

    verdict(6, problems,
            "spectrum, mfcc and masking clauses pass; "
            f"hz_to_mel(1000) = {mel:.6f}")


def test_criterion_07_metric_hand_examples():
    problems = []
    counts, rate = wer("a b c", "a b c")
    if counts.total != 0 or rate != 0.0:
        problems.append(f"identical pair scored {rate}")
    counts, rate = wer("the cat sat", "the cat")
    if (counts.substitutions, counts.deletions, counts.insertions) != (0, 1, 0) \
            or rate != 1 / 3:
        problems.append(f"one deletion scored {rate}, counts {counts}")
    counts, rate = wer("a", "b c")
    if (counts.substitutions, counts.deletions, counts.insertions) != (1, 0, 1) \
            or rate != 2.0:
        problems.append(f"substitute-plus-insert scored {rate}, counts {counts}")
    pairs = [("a b", "a c"), ("e f g h i j k l", "e f g h i j k l")]
    _, pooled = corpus_wer(pairs)
    averaged = sum(wer(r, h)[1] for r, h in pairs) / len(pairs)
    if pooled != 0.1 or averaged != 0.25:
        problems.append(f"corpus pooling gave {pooled} (mean {averaged})")
    ppl = lm_perplexity(UniformLM(("a", "b", "c")), ["a b c"])
    if ppl != 4.0:
        problems.append(f"uniform perplexity {ppl!r} != 4.0")
    verdict(7, problems, "three WER hand cases, pooled 0.1 vs mean 0.25, PPL 4")


def straight_line_attention(objects_q, objects_kv, audio, params):
    """Independent per-head, per-pair evaluation of the fused attention."""
    heads, dh, _ = params.wq.shape
    rows = []
    for o_i in objects_q:
        ctxs = []
        for h in range(heads):
            q = params.wq[h] @ o_i + params.wqa[h] @ audio
            energies = [float(q @ (params.wk[h] @ o_j + params.wka[h] @ audio))
                        / math.sqrt(dh) for o_j in objects_kv]
            weights = [math.exp(e) for e in energies]
            total = sum(weights)
            ctx = np.zeros(dh)
            for w, o_j in zip(weights, objects_kv):
                ctx += (w / total) * (params.wv[h] @ o_j + params.wva[h] @ audio)
            ctxs.append(ctx)
        rows.append(params.wo @ np.concatenate(ctxs))
    return np.stack(rows)


def test_criterion_08_attention_and_gradients():
    rng = np.random.default_rng(1008)
    problems = []
    worst_attn = -np.inf
    for _ in range(50):
        heads = int(rng.integers(1, 4))
        dh = int(rng.integers(2, 7))
        d = int(rng.integers(5, 13))
        da = int(rng.integers(3, 9))
        params = rand_params(rng, heads, dh, d, da)
        oq = rng.standard_normal((int(rng.integers(1, 6)), d))
        okv = rng.standard_normal((int(rng.integers(1, 6)), d))
        audio = rng.standard_normal(da)
        worst_attn = max(worst_attn,
                         excess(audio_guided_attention(oq, okv, audio, params),
                                straight_line_attention(oq, okv, audio, params),
                                rtol=1e-12, atol=1e-12))
    if worst_attn > 0:
        problems.append(f"attention exceeds 1e-12 by {worst_attn:.3g}")

    # 28 parameter tensors, 2 probes each (1 for the scalar output bias)
    # gives 55 spot checks per model, 20 seeded models
    worst_grad = 0.0
    for i in range(20):
        model = init_grounding_model(GroundingConfig(**SMALL), seed=i)
        scenes = generate_scenes(GenConfig(num_scenes=3, num_classes=4,
                                           d_audio=16, points_per_object=16,
                                           seed=200 + i))
        worst_grad = max(worst_grad, gradient_check(model, scenes,
                                                    samples_per_tensor=2, seed=i))
    if worst_grad > 1e-4:
        problems.append(f"gradient check error {worst_grad:.3g} (> 1e-4)")

    scenes = generate_scenes(GenConfig(num_scenes=50, num_classes=5, seed=321))
    model = init_grounding_model(GroundingConfig(num_classes=5), seed=2)
    worst_perm = 0.0
    grounded = 0
    for k, scene in enumerate(scenes):
        perm = rng.permutation(len(scene.objects))
        new_target = int(np.where(perm == scene.target_index)[0][0])
        shuffled = SyntheticScene([scene.objects[q] for q in perm],
                                  scene.audio, scene.target_class,
                                  scene.mentioned_classes,
                                  scene.relation_id, new_target)
        try:
            base = ground(model, scene)
        except GroundingFailure:
            base = None
        try:
            moved = ground(model, shuffled)
        except GroundingFailure:
            moved = None
        if (base is None) != (moved is None):
            problems.append(f"scene {k}: grounding outcome changed under permutation")
            continue
        if base is None:
            continue
        grounded += 1
        base_probs = dict(zip(base.candidate_indices, base.probs))
        moved_probs = {int(perm[j]): prob for j, prob in
                       zip(moved.candidate_indices, moved.probs)}
        if int(perm[moved.winner_index]) != base.winner_index \
                or set(moved_probs) != set(base_probs):
            problems.append(f"scene {k}: winner moved under permutation")
            continue
        worst_perm = max(worst_perm, max(abs(moved_probs[j] - prob)
                                         for j, prob in base_probs.items()))
    if worst_perm > 1e-9:
        problems.append(f"permutation drift {worst_perm:.3g} (> 1e-9)")
    verdict(8, problems,
            f"attention oracle on 50 configs, gradients max {worst_grad:.2e}, "
            f"equivariant on {grounded} grounded scenes")


def test_criterion_09_toy_training_reaches_thresholds():
    start = time.monotonic()
    train = generate_scenes(GenConfig(num_scenes=2000, num_classes=6, seed=0))
    held_out = generate_scenes(GenConfig(num_scenes=500, num_classes=6, seed=1))
    model = init_grounding_model(GroundingConfig(num_classes=6), seed=0)
    train_toy(model, train)
    report = evaluate(model, held_out)
    elapsed = time.monotonic() - start
    problems = []
    if report.audio_accuracy < 0.95:
        problems.append(f"audio accuracy {report.audio_accuracy:.3f} < 0.95")
    if report.mention_f1 < 0.90:
        problems.append(f"mention F1 {report.mention_f1:.3f} < 0.90")
    if report.grounding_accuracy < 0.90:
        problems.append(f"grounding accuracy {report.grounding_accuracy:.3f} < 0.90")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.0f}s (budget 300s)")
    verdict(9, problems,
            f"audio {report.audio_accuracy:.3f}, "
            f"mention F1 {report.mention_f1:.3f}, "
            f"grounding {report.grounding_accuracy:.3f}, {elapsed:.0f}s")


def test_criterion_10_representation_analysis_anchors():
    rng = np.random.default_rng(1010)
    problems = []
    trivial = contrastive_loss(ContrastiveBatch(
        np.array([0.3, -0.7]), np.array([0.3, -0.7]),
        np.zeros((0, 2)), temperature=0.5))
    if trivial != 0.0:
        problems.append(f"no-negatives contrastive loss {trivial!r} != 0")
    derived = contrastive_loss(ContrastiveBatch(
        np.array([1.0, 0.0]), np.array([1.0, 0.0]),
        np.array([[0.0, 1.0]]), temperature=1.0))
    if abs(derived - math.log1p(math.exp(-1.0))) > 1e-9:
        problems.append(f"two-candidate contrastive loss {derived:.12f} "
                        f"!= log(1 + e^-1)")
    div = diversity_loss(CodebookUsage(np.array([[0.5, 0.5]])))
    if abs(div + math.log(2.0) / 2.0) > 1e-12:
        problems.append(f"uniform diversity {div:.15f} != -ln2/2")
    x = rng.standard_normal((400, 4))
    corrs = cca_corrs(x, x @ rng.standard_normal((4, 4)))
    if corrs.min() < 0.999:
        problems.append(f"invertible-map correlations dip to {corrs.min():.6f}")
    mi = mutual_information(rng.standard_normal((10000, 3)),
                            rng.integers(0, 3, size=10000),
                            num_clusters=3, seed=0)
    if mi > 0.05:
        problems.append(f"independent-labels MI {mi:.4f} nats (> 0.05)")
    verdict(10, problems,
            f"contrastive, diversity and CCA anchors hold, "
            f"independence MI {mi:.4f} nats")


def test_criterion_11_malformed_inputs_exit_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(1011)
    garbage = ("}{", "nope", "-1e999", "NaN;", "%%", "\x00\x01",
               "][", "..", "?!", "zz zz zz")
    out = str(tmp_path / "out")
    problems = []
    for i in range(50):
        path = str(tmp_path / f"case{i}")
        if i % 2 == 0:
            with open(path, "wb") as fh:
                fh.write(rng.bytes(int(rng.integers(0, 2000))))
        else:
            toks = rng.choice(garbage, size=int(rng.integers(1, 30)))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(" ".join(toks))
        argv = [
            ["ctc", "loss", "--posteriors", path, "--vocab", path, "--labels", "a"],
            ["featurize", "--input", path, "--output", out],
            ["eval", "ppl", "--lm", path, "--text", path],
            ["analyze", "cca", "--x", path, "--y", path],
            ["ground", "train", "--data", path, "--out", out],
            ["ground", "eval", "--model", path, "--data", path],
        ][i % 6]
        code = cli_main(argv)
        capsys.readouterr()
        if code not in (1, 2, 3):
            problems.append(f"case {i}: exit code {code}")
    verdict(11, problems, "50 malformed files, every exit in {1, 2, 3}")
