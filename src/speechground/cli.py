"""Command-line entry point exposing every pipeline stage.

Batch use only.  Exit codes: 0 success, 1 usage, 2 data, 3 numeric or
infeasible.  Summary lines print numbers at 6 decimals; --json adds a
single-line JSON object with full precision and a "version" field.
A run is deterministic given its flags and inputs; the four commands that
draw random numbers (featurize, analyze mi, ground gen/train) take --seed.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .ctc import (ctc_forward, ctc_prefix_logprob, format_label_sequence,
                  parse_label_string, read_posteriorgram, read_vocab)
from .decode import (DecodeConfig, estimate_prior, greedy_decode,
                     labelsync_beam, timesync_beam)
from .dsp import (FrameSpec, MaskSpec, load_features, mel_filterbank, mfcc,
                  normalize_wave, read_wav, spec_augment, write_feature_binary,
                  write_feature_text)
from .errors import DataError, NumericError, UsageError
from .lm import lm_perplexity, read_lm
from .metrics import corpus_wer


def _emit(args, line: str, payload: dict) -> None:
    # summary line always, JSON report on request; neither if a number is not finite
    try:
        report = json.dumps({"version": __version__, **payload}, sort_keys=True,
                            allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{payload['command']}: result is not finite") from exc
    print(line)
    if args.json:
        print(report)


def _info(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _load_prior_sources(path: str, num_symbols: int):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if os.path.isfile(os.path.join(path, n))]
        if not files:
            raise DataError(f"prior directory {path} has no files")
    posts = [read_posteriorgram(f) for f in files]
    for f, post in zip(files, posts):
        if post.num_symbols != num_symbols:
            raise DataError(f"prior file {f} has {post.num_symbols} symbols, not {num_symbols}")
    if not any(post.num_frames for post in posts):
        raise DataError(f"prior {path} has no frames")
    return posts


def _load_ctc_inputs(args):
    vocab = read_vocab(args.vocab)
    post = read_posteriorgram(args.posteriors)
    if post.num_symbols != vocab.size:
        raise DataError(
            f"posteriorgram has {post.num_symbols} symbols, vocabulary has "
            f"{vocab.size}")
    return vocab, post


def _cmd_featurize(args) -> None:
    wave = normalize_wave(read_wav(args.input))
    spec = FrameSpec()
    fb = mel_filterbank(spec, args.filters)
    feats = mfcc(wave, spec, fb, args.cepstra)
    if args.augment:
        masks = MaskSpec(max_time_mask=args.tm, max_freq_mask=args.fm,
                         num_time_masks=args.tm_count,
                         num_freq_masks=args.fm_count, seed=args.seed)
        feats = spec_augment(feats, masks)
    if args.binary:
        write_feature_binary(args.output, feats)
    else:
        write_feature_text(args.output, feats)
    _emit(args, f"T={feats.num_frames} D={feats.dim}", {
        "command": "featurize", "frames": feats.num_frames,
        "dim": feats.dim, "output": args.output,
    })


def _cmd_ctc_loss(args) -> None:
    vocab, post = _load_ctc_inputs(args)
    target = parse_label_string(args.labels, vocab)
    _, logp = ctc_forward(post, target)
    if logp == -np.inf:
        raise NumericError("target is infeasible for this posteriorgram")
    loss = 0.0 - logp  # not -logp, which is -0.0 for a certain target
    _emit(args, f"LOSS={loss:.6f}", {
        "command": "ctc-loss", "loss": loss, "logp": logp,
    })


def _cmd_ctc_prefix(args) -> None:
    vocab, post = _load_ctc_inputs(args)
    prefix = parse_label_string(args.labels, vocab)
    logp = ctc_prefix_logprob(post, prefix)
    _emit(args, f"LOGP={logp:.6f}", {"command": "ctc-prefix", "logp": logp})


# Label-sync's time grows about linearly with the width: on 100 frames of
# 30 symbols it took 0.14-0.16 s at the default 8 and 3.7-4.7 s at 256 (in
# process, one BLAS thread, 2-core Xeon; no early stop fires on those rows),
# so the cap keeps a decode within about 30x the default's time.
MAX_BEAM = 256


def _cmd_ctc_decode(args) -> None:
    # a flag the mode ignores, or a width over the cap, is refused before any file is opened
    beam, time_sync, fused = args.mode != "greedy", args.mode == "time-sync", args.lm is not None
    for flag, given, applies, where in (
            ("--beam", args.beam is not None, beam, "the beam modes"),
            ("--lm", fused, beam, "the beam modes"),
            ("--lm-scale", args.lm_scale > 0, beam, "the beam modes"),
            ("--prior-from", args.prior_from is not None, time_sync, "time-sync"),
            ("--prior-scale", args.prior_scale > 0, time_sync, "time-sync"),
            ("--alpha", args.alpha is not None, fused, "a decode with --lm")):
        if given and not applies:
            raise UsageError(f"{flag} applies only to {where}; {args.mode} mode ignores it")
    if args.beam is not None and args.beam > MAX_BEAM:
        raise UsageError(f"--beam {args.beam} exceeds the maximum width {MAX_BEAM}")
    vocab, post = _load_ctc_inputs(args)
    config = DecodeConfig(beam_width=8 if args.beam is None else args.beam,
                          lm_scale=args.lm_scale, prior_scale=args.prior_scale)
    lm = read_lm(args.lm, alpha=1.0 if args.alpha is None else args.alpha) if fused else None
    prior = (estimate_prior(_load_prior_sources(args.prior_from, post.num_symbols))
             if args.prior_from is not None else None)
    if args.mode == "greedy":
        seq = greedy_decode(post)
    elif time_sync:
        seq = timesync_beam(post, config, lm=lm, prior=prior, vocab=vocab).sequence
    else:
        seq = labelsync_beam(post, config, lm=lm, vocab=vocab).sequence
    text = format_label_sequence(seq, vocab)
    _emit(args, f"HYP={text}", {
        "command": "ctc-decode", "mode": args.mode, "beam": config.beam_width,
        "hyp": list(text.split()),
    })


def _cmd_eval_wer(args) -> None:
    refs = _read_lines(args.ref)
    hyps = _read_lines(args.hyp)
    if len(refs) != len(hyps):
        raise DataError(
            f"reference has {len(refs)} lines, hypothesis has {len(hyps)}")
    counts, rate = corpus_wer(zip(refs, hyps))
    _emit(args,
          f"WER={rate:.6f} S={counts.substitutions} D={counts.deletions} "
          f"I={counts.insertions} N={counts.ref_length}",
          {"command": "eval-wer", "wer": rate,
           "substitutions": counts.substitutions,
           "deletions": counts.deletions,
           "insertions": counts.insertions,
           "ref_length": counts.ref_length})


def _cmd_eval_ppl(args) -> None:
    model = read_lm(args.lm, alpha=args.alpha)
    sentences = _read_lines(args.text)
    ppl = lm_perplexity(model, sentences)
    _emit(args, f"PPL={ppl:.6f}", {"command": "eval-ppl", "ppl": ppl})


def _cmd_analyze_cca(args) -> None:
    from .selfsup import cca_corrs
    x = load_features(args.x)
    y = load_features(args.y)
    if x.num_frames != y.num_frames:
        raise DataError(f"{x.num_frames} rows in --x but {y.num_frames} in --y")
    if x.num_frames < 2:
        raise DataError(f"cca needs at least two rows, got {x.num_frames}")
    corrs = cca_corrs(x.data, y.data, reg=args.reg)
    sim = float(corrs.mean())
    _emit(args, f"CCA={sim:.6f}", {
        "command": "analyze-cca", "similarity": sim,
        "correlations": [float(c) for c in corrs],
    })


def _cmd_analyze_mi(args) -> None:
    from .selfsup import mutual_information
    feats = load_features(args.features)
    labels = _read_lines(args.labels)
    if len(labels) != feats.num_frames:
        raise DataError(
            f"{len(labels)} labels for {feats.num_frames} feature rows")
    value = mutual_information(feats.data, labels, args.clusters,
                               seed=args.seed)
    _emit(args, f"MI={value:.6f}", {
        "command": "analyze-mi", "mi": value, "clusters": args.clusters,
    })


def _cmd_analyze_ssl(args) -> None:
    from .selfsup import CodebookUsage, ContrastiveBatch, contrastive_loss, diversity_loss
    feats = load_features(args.features)
    if feats.num_frames < 2:
        raise DataError("need at least two rows: context then target")
    batch = ContrastiveBatch(feats.data[0], feats.data[1], feats.data[2:],
                             temperature=args.temperature)
    closs = contrastive_loss(batch)
    payload = {"command": "analyze-ssl", "contrastive": closs}
    line = f"CONTRASTIVE={closs:.6f}"
    if args.usage:
        dloss = diversity_loss(CodebookUsage(load_features(args.usage).data))
        payload["diversity"] = dloss
        line += f" DIVERSITY={dloss:.6f}"
    _emit(args, line, payload)


def _cmd_ground_gen(args) -> None:
    from .grounding.scene import _CHUNK, GenConfig, generate_scenes, write_scenes
    # both splits' flags are checked before the output directory is made
    configs = {name: GenConfig(num_scenes=count, num_classes=args.classes, seed=seed,
                               embed_seed=args.embed_seed)
               for name, count, seed in (("train.jsonl", args.train_scenes, args.seed),
                                         ("dev.jsonl", args.dev_scenes, args.seed + 1))}
    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for name, cfg in configs.items():
        path = os.path.join(args.out, name)
        # each chunk is generated only after the previous one is written
        write_scenes(path, (scene for first in range(0, cfg.num_scenes, _CHUNK)
                            for scene in generate_scenes(
                                cfg, first, min(first + _CHUNK, cfg.num_scenes))),
                     None if args.points else args.embed_seed)
        paths[name] = path
    _emit(args, f"TRAIN={args.train_scenes} DEV={args.dev_scenes}", {
        "command": "ground-gen", "train_path": paths["train.jsonl"],
        "dev_path": paths["dev.jsonl"], "train_scenes": args.train_scenes,
        "dev_scenes": args.dev_scenes,
    })


def _infer_num_classes(path: str, scenes) -> int:
    """One past the largest class id in the file; every id below it must occur."""
    ids = [{scene.target_class, *scene.mentioned_classes,
            *(o.class_id for o in scene.objects)} for scene in scenes]
    present = sorted(set().union(*ids))
    top = present[-1]
    if top >= len(present):
        missing = next(i for i, class_id in enumerate(present) if i != class_id)
        # read_scenes skips blank lines, so scene k sits on the k-th other line
        with open(path, encoding="utf-8") as fh:
            lines = [n for n, text in enumerate(fh, start=1) if text.strip()]
        lineno = lines[next(k for k, found in enumerate(ids) if top in found)]
        raise DataError(f"line {lineno}: class id {top} implies {top + 1} classes, "
                        f"but class {missing} occurs nowhere in {path}; pass --classes")
    return max(top + 1, 2)


def _stream_scenes(path: str):
    """Yield the scenes of a file; a file without any is bad data."""
    from .grounding import iter_scenes
    count = 0
    for count, scene in enumerate(iter_scenes(path), start=1):
        yield scene
    if not count:
        raise DataError(f"no scenes in {path}")


def _cmd_ground_train(args) -> None:
    from .grounding import (GroundingConfig, TrainConfig, init_grounding_model,
                            save_checkpoint, train_toy)
    scenes = list(_stream_scenes(args.data))
    num_classes = args.classes if args.classes else _infer_num_classes(args.data, scenes)
    cfg = GroundingConfig(num_classes=num_classes,
                          d_audio=scenes[0].audio.shape[0],
                          embed_seed=args.embed_seed)
    model = init_grounding_model(cfg, seed=args.seed)
    tcfg = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                       learning_rate=args.lr, seed=args.seed)
    records = train_toy(model, scenes, tcfg)
    for rec in records:
        _info(args, f"EPOCH={rec.epoch} LOSS={rec.loss:.6f}")
    save_checkpoint(args.out, model)
    _emit(args, f"LOSS={records[-1].loss:.6f}", {
        "command": "ground-train", "final_loss": records[-1].loss,
        "epochs": len(records), "checkpoint": args.out,
    })


def _cmd_ground_eval(args) -> None:
    from .grounding import evaluate, load_checkpoint
    model = load_checkpoint(args.model)
    report = evaluate(model, _stream_scenes(args.data))
    _info(args, f"AUDIO_ACC={report.audio_accuracy:.6f}")
    _info(args, f"MENTION_F1={report.mention_f1:.6f}")
    _emit(args, f"ACC={report.grounding_accuracy:.6f}", {
        "command": "ground-eval",
        "accuracy": report.grounding_accuracy,
        "audio_accuracy": report.audio_accuracy,
        "mention_precision": report.mention_precision,
        "mention_recall": report.mention_recall,
        "mention_f1": report.mention_f1,
        "failures": report.failures,
        "num_scenes": report.num_scenes,
    })


def _cmd_ground_infer(args) -> None:
    from .grounding import ground, load_checkpoint
    model = load_checkpoint(args.model)
    chosen = None
    for last, scene in enumerate(_stream_scenes(args.scene)):  # every line is checked
        if last == args.index:
            chosen = scene
    if chosen is None:
        raise UsageError(f"scene index {args.index} outside 0..{last}")
    result = ground(model, chosen)
    _emit(args, f"TARGET={result.winner_index} CLASS={result.predicted_class}", {
        "command": "ground-infer",
        "target": result.winner_index,
        "predicted_class": result.predicted_class,
        "predicted_mentions": list(result.predicted_mentions),
        "candidates": list(result.candidate_indices),
        "probs": [float(p) for p in result.probs],
        "relational_empty": result.relational_empty,
    })


class _Parser(argparse.ArgumentParser):
    """argparse that takes only full flag names and reports misuse with exit code 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="also print a JSON report line")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized steps")
    quiet = _Parser(add_help=False)
    quiet.add_argument("--quiet", action="store_true",
                       help="suppress auxiliary output lines")

    parser = _Parser(prog="speechground",
                     description="Speech decoding and grounding numerics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    feat = sub.add_parser("featurize", parents=[common, seeded],
                          help="WAV to mel-cepstral features")
    feat.add_argument("--input", required=True, help="16 kHz mono PCM16 WAV")
    feat.add_argument("--output", required=True, help="feature file to write")
    feat.add_argument("--binary", action="store_true",
                      help="write the binary feature format")
    feat.add_argument("--filters", type=int, default=26)
    feat.add_argument("--cepstra", type=int, default=13)
    feat.add_argument("--augment", action="store_true",
                      help="apply seeded time/frequency masking")
    feat.add_argument("--tm", type=int, default=0, help="max time-mask width")
    feat.add_argument("--fm", type=int, default=0, help="max freq-mask width")
    feat.add_argument("--tm-count", type=int, default=1)
    feat.add_argument("--fm-count", type=int, default=1)
    feat.set_defaults(func=_cmd_featurize)

    ctc_common = _Parser(add_help=False)
    ctc_common.add_argument("--posteriors", required=True,
                            help="posteriorgram file (rows of log probs)")
    ctc_common.add_argument("--vocab", required=True, help="vocabulary file")

    ctc = sub.add_parser("ctc", help="alignment-free sequence probabilities")
    ctc_sub = ctc.add_subparsers(dest="action", required=True, metavar="ACTION")

    loss = ctc_sub.add_parser("loss", parents=[common, ctc_common],
                              help="negative log probability of a labeling")
    loss.add_argument("--labels", required=True,
                      help="space-separated target labels")
    loss.set_defaults(func=_cmd_ctc_loss)

    prefix = ctc_sub.add_parser("prefix", parents=[common, ctc_common],
                                help="log probability of a label prefix")
    prefix.add_argument("--labels", required=True,
                        help="space-separated prefix labels")
    prefix.set_defaults(func=_cmd_ctc_prefix)

    dec = ctc_sub.add_parser("decode", parents=[common, ctc_common],
                             help="search for the best labeling")
    dec.add_argument("--mode", choices=("greedy", "time-sync", "label-sync"),
                     default="greedy")
    dec.add_argument("--beam", type=int, help=f"beam width H (default 8, at most {MAX_BEAM})")
    dec.add_argument("--lm", help="count file for shallow fusion")
    dec.add_argument("--lm-scale", type=float, default=0.0)
    dec.add_argument("--alpha", type=float,
                     help="LM smoothing constant (default 1.0)")
    dec.add_argument("--prior-from",
                     help="posteriorgram file or directory for the label prior")
    dec.add_argument("--prior-scale", type=float, default=0.0)
    dec.set_defaults(func=_cmd_ctc_decode)

    ev = sub.add_parser("eval", help="error rates and perplexity")
    ev_sub = ev.add_subparsers(dest="action", required=True, metavar="ACTION")

    werp = ev_sub.add_parser("wer", parents=[common],
                             help="word error rate over parallel files")
    werp.add_argument("--ref", required=True)
    werp.add_argument("--hyp", required=True)
    werp.set_defaults(func=_cmd_eval_wer)

    pplp = ev_sub.add_parser("ppl", parents=[common],
                             help="corpus perplexity of a count model")
    pplp.add_argument("--lm", required=True, help="count file")
    pplp.add_argument("--text", required=True, help="one sentence per line")
    pplp.add_argument("--alpha", type=float, default=1.0)
    pplp.set_defaults(func=_cmd_eval_ppl)

    an = sub.add_parser("analyze", help="representation diagnostics")
    an_sub = an.add_subparsers(dest="action", required=True, metavar="ACTION")

    cca = an_sub.add_parser("cca", parents=[common],
                            help="canonical correlation of two feature files")
    cca.add_argument("--x", required=True)
    cca.add_argument("--y", required=True)
    cca.add_argument("--reg", type=float, default=1e-6)
    cca.set_defaults(func=_cmd_analyze_cca)

    mi = an_sub.add_parser("mi", parents=[common, seeded],
                           help="mutual information of clusters vs labels")
    mi.add_argument("--features", required=True)
    mi.add_argument("--labels", required=True, help="one label per line")
    mi.add_argument("--clusters", type=int, default=8)
    mi.set_defaults(func=_cmd_analyze_mi)

    ssl = an_sub.add_parser("ssl-losses", parents=[common],
                            help="contrastive/diversity losses on a file")
    ssl.add_argument("--features", required=True,
                     help="row 0 context, row 1 target, rest negatives")
    ssl.add_argument("--temperature", type=float, default=0.1)
    ssl.add_argument("--usage", help="optional (G, V) usage matrix file")
    ssl.set_defaults(func=_cmd_analyze_ssl)

    gr = sub.add_parser("ground", help="synthetic grounding pipeline")
    gr_sub = gr.add_subparsers(dest="action", required=True, metavar="ACTION")

    gen = gr_sub.add_parser("gen", parents=[common, seeded],
                            help="generate train/dev scene files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--train-scenes", type=int, default=2000)
    gen.add_argument("--dev-scenes", type=int, default=500)
    gen.add_argument("--classes", type=int, default=6)
    gen.add_argument("--embed-seed", type=int, default=7)
    gen.add_argument("--points", action="store_true",
                     help="keep raw point clouds in the files")
    gen.set_defaults(func=_cmd_ground_gen)

    tr = gr_sub.add_parser("train", parents=[common, seeded, quiet],
                           help="train the grounding model")
    tr.add_argument("--data", required=True, help="training scene file")
    tr.add_argument("--out", required=True, help="checkpoint to write")
    tr.add_argument("--classes", type=int, default=0,
                    help="class count; 0 infers it from the data")
    tr.add_argument("--embed-seed", type=int, default=7)
    tr.add_argument("--epochs", type=int, default=40)
    tr.add_argument("--batch", type=int, default=32)
    tr.add_argument("--lr", type=float, default=3e-3)
    tr.set_defaults(func=_cmd_ground_train)

    ge = gr_sub.add_parser("eval", parents=[common, quiet],
                           help="score a checkpoint on a scene file")
    ge.add_argument("--model", required=True)
    ge.add_argument("--data", required=True)
    ge.set_defaults(func=_cmd_ground_eval)

    gi = gr_sub.add_parser("infer", parents=[common],
                           help="ground one scene from a file")
    gi.add_argument("--model", required=True)
    gi.add_argument("--scene", required=True, help="scene file")
    gi.add_argument("--index", type=int, default=0)
    gi.set_defaults(func=_cmd_ground_infer)

    return parser


def main(argv=None) -> int:
    """Parse and run; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args)
        return 0
    except (UsageError, DataError, NumericError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, NumericError) else 2
    except Exception as exc:  # no crash escapes; treat as infeasible
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        print(f"internal error in {command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
