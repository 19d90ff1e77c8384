"""End-to-end command-line tests driven through main()."""

import argparse
import ast
import hashlib
import importlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import warnings
import wave
import weakref
from pathlib import Path

import numpy as np
import pytest

from speechground import cli
from speechground.cli import main
from speechground.dsp import FeatureMatrix, Waveform, write_feature_binary, write_wav
from speechground.grounding import (GenConfig, GroundingConfig, GroundingFailure,
                                    generate_scenes, ground, init_grounding_model,
                                    read_scenes, save_checkpoint, write_scenes)
from speechground.grounding import scene as scene_module
from speechground.grounding.scene import _CHUNK, MAX_CLASSES, SyntheticScene


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tensors(path):
    """Name -> array of a checkpoint file, parsed with struct alone."""
    blob = path.read_bytes()
    assert blob[:8] == b"A3VG" + struct.pack("<I", 1)
    tensors, pos = {}, 8
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        count = math.prod(dims)
        tensors[name] = np.array(struct.unpack_from(f"<{count}d", blob, pos)
                                 ).reshape(dims)
        pos += 8 * count
    return tensors


def write_tensors(path, tensors):
    """Write name -> array as checkpoint bytes, names in sorted order."""
    chunks = [b"A3VG", struct.pack("<I", 1)]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        raw = name.encode("utf-8")
        chunks += [struct.pack("<I", len(raw)), raw,
                   struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                   arr.tobytes()]
    path.write_bytes(b"".join(chunks))


def assert_one_error_naming(err, name):
    """stderr is one `error:` line, no traceback, and it names `name`."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err and "internal error" not in err, err


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_post(path, rows):
    """Posteriorgram text file from probability rows."""
    rows = np.asarray(rows, dtype=np.float64)
    lines = [f"{rows.shape[0]} {rows.shape[1]}"]
    for row in rows:
        lines.append(" ".join(f"{math.log(v):.17g}" for v in row))
    return write_text(path, "\n".join(lines) + "\n")


def write_vocab(path, labels):
    return write_text(path, "\n".join(["<blank>", *labels]) + "\n")


def write_feats(path, data):
    data = np.asarray(data, dtype=np.float64)
    lines = [f"{data.shape[0]} {data.shape[1]}"]
    for row in data:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return write_text(path, "\n".join(lines) + "\n")


@pytest.fixture
def anchor(tmp_path):
    """One-frame posteriorgram with P(a) = 0.75 and its vocabulary."""
    post = write_post(tmp_path / "anchor.post", [[0.25, 0.75]])
    vocab = write_vocab(tmp_path / "anchor.vocab", ["a"])
    return post, vocab


class TestFeaturize:
    @pytest.fixture
    def wav_path(self, tmp_path):
        rng = np.random.default_rng(400)
        samples = rng.uniform(-0.5, 0.5, 16000)
        path = tmp_path / "tone.wav"
        write_wav(str(path), Waveform(samples, 16000))
        return str(path)

    def test_one_second_gives_98_frames(self, wav_path, tmp_path, capsys):
        out = tmp_path / "feats.txt"
        code, stdout, _ = run(["featurize", "--input", wav_path,
                               "--output", str(out)], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == "T=98 D=13"
        header = out.read_text().splitlines()[0]
        assert header == "98 13"

    def test_binary_output_and_agreement(self, wav_path, tmp_path, capsys):
        text_out = tmp_path / "f.txt"
        bin_out = tmp_path / "f.bin"
        assert run(["featurize", "--input", wav_path, "--output",
                    str(text_out)], capsys)[0] == 0
        assert run(["featurize", "--input", wav_path, "--output",
                    str(bin_out), "--binary"], capsys)[0] == 0
        assert bin_out.read_bytes()[:4] == b"FTRX"
        from speechground.dsp import load_features
        np.testing.assert_array_equal(load_features(str(text_out)).data,
                                      load_features(str(bin_out)).data)

    def test_augment_is_seeded(self, wav_path, tmp_path, capsys):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code, stdout, _ = run(
                ["featurize", "--input", wav_path, "--output", str(out),
                 "--augment", "--tm", "10", "--fm", "4", "--tm-count", "2",
                 "--fm-count", "2", "--seed", "3"], capsys)
            assert code == 0
            assert stdout.splitlines()[0] == "T=98 D=13"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stereo_rejected(self, tmp_path, capsys):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00" * 3200)
        code, _, err = run(["featurize", "--input", str(path),
                            "--output", str(tmp_path / "o.txt")], capsys)
        assert code == 2
        assert "channels" in err

    @pytest.mark.parametrize("width, frames, message", [
        (3, 1600, "bits per sample: expected 16 (width 2), got width 3"),
        (2, 0, "pre-emphasis needs at least 2 samples, got 0"),
        (2, 1, "pre-emphasis needs at least 2 samples, got 1"),
    ], ids=["24-bit", "0-sample", "1-sample"])
    def test_unusable_pcm_wav_rejected(self, width, frames, message, tmp_path, capsys):
        path = tmp_path / "pcm.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(width)
            fh.setframerate(16000)
            fh.writeframes(b"\x00" * width * frames)
        code, out, err = run(["featurize", "--input", str(path),
                              "--output", str(tmp_path / "o.txt")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_float_wav_rejected(self, tmp_path, capsys):
        # a 32-bit float WAV (format tag 3): the wave module refuses the tag itself
        data = np.zeros(160, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        path = tmp_path / "float.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt "
                         + struct.pack("<I", len(fmt)) + fmt
                         + b"data" + struct.pack("<I", len(data)) + data)
        code, out, err = run(["featurize", "--input", str(path),
                              "--output", str(tmp_path / "o.txt")], capsys)
        assert (code, out) == (2, "")
        assert "not a readable RIFF/WAVE file: unknown format: 3" in err

    def test_too_many_cepstra(self, wav_path, tmp_path, capsys):
        code, _, err = run(
            ["featurize", "--input", wav_path, "--output",
             str(tmp_path / "o.txt"), "--cepstra", "40", "--filters", "26"],
            capsys)
        assert code == 1
        assert "error:" in err

    def test_missing_input(self, tmp_path, capsys):
        code, _, err = run(["featurize", "--input",
                            str(tmp_path / "absent.wav"),
                            "--output", str(tmp_path / "o.txt")], capsys)
        assert code == 2
        assert err

    def test_filter_count_beyond_twice_the_bins(self, wav_path, tmp_path, capsys):
        # refused before the (filters, bins) weight array is allocated
        code, out, err = run(["featurize", "--input", wav_path, "--output",
                              str(tmp_path / "o.txt"), "--filters", "100000000000"], capsys)
        assert (code, out) == (1, "")
        assert "100000000000 filters exceed twice the 257 FFT bins" in err

    # an odd cut leaves half a sample; an even one whole samples, fewer than the header's
    @pytest.mark.parametrize("cut", [1, 2, 3, 1000])
    def test_data_shorter_than_the_header_says(self, cut, wav_path, tmp_path, capsys):
        path = tmp_path / "short.wav"
        path.write_bytes(Path(wav_path).read_bytes()[:-cut])
        code, out, err = run(["featurize", "--input", str(path),
                              "--output", str(tmp_path / "o.txt")], capsys)
        assert (code, out) == (2, "")
        assert err == "error: truncated RIFF/WAVE file\n"


class TestCtcCommands:
    def test_loss_anchor(self, anchor, capsys):
        post, vocab = anchor
        code, out, _ = run(["ctc", "loss", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "LOSS=0.287682"

    def test_loss_refuses_a_blank_label(self, anchor, capsys):
        post, vocab = anchor
        code, out, err = run(["ctc", "loss", "--posteriors", post,
                              "--vocab", vocab, "--labels", "<blank>"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: target sequences cannot contain the blank\n"

    def test_certain_target_has_a_positive_zero_loss(self, tmp_path, capsys):
        post = write_text(tmp_path / "certain.post", "2 3\n0 -inf -inf\n-inf 0 -inf\n")
        vocab = write_vocab(tmp_path / "certain.vocab", ["a", "b"])
        code, out, _ = run(["ctc", "loss", "--posteriors", post, "--vocab", vocab,
                            "--labels", "a", "--json"], capsys)
        assert code == 0
        line, report = out.splitlines()
        assert line == "LOSS=0.000000"
        assert '"loss": 0.0' in report
        assert math.copysign(1.0, json.loads(report)["loss"]) == 1.0

    def test_loss_json_and_reruns_are_identical(self, anchor, capsys):
        post, vocab = anchor
        argv = ["ctc", "loss", "--posteriors", post, "--vocab", vocab,
                "--labels", "a", "--json"]
        code, out_a, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out_a.splitlines()[1])
        assert payload["command"] == "ctc-loss"
        assert "version" in payload
        np.testing.assert_allclose(payload["loss"], -math.log(0.75),
                                   rtol=1e-12)
        assert run(argv, capsys)[1] == out_a

    def test_infeasible_target(self, anchor, capsys):
        post, vocab = anchor
        code, _, err = run(["ctc", "loss", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a a"], capsys)
        assert code == 3
        assert "infeasible" in err

    def test_prefix_anchor(self, anchor, capsys):
        post, vocab = anchor
        code, out, _ = run(["ctc", "prefix", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "LOGP=-0.287682"

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_prefix_without_mass_is_refused(self, extra, tmp_path, capsys):
        # "a a b" needs four frames, so its prefix log probability is -inf
        post = write_post(tmp_path / "two.post", [[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
        vocab = write_vocab(tmp_path / "two.vocab", ["a", "b"])
        code, out, err = run(["ctc", "prefix", "--posteriors", post, "--vocab", vocab,
                              "--labels", "a a b", *extra], capsys)
        assert (code, out) == (3, "")
        assert "ctc-prefix: result is not finite" in err

    @pytest.fixture
    def peaky(self, tmp_path):
        """Four peaked frames whose greedy collapse is 'a b'."""
        post = write_post(tmp_path / "peaky.post",
                          [[0.05, 0.90, 0.05], [0.05, 0.90, 0.05],
                           [0.90, 0.05, 0.05], [0.05, 0.05, 0.90]])
        vocab = write_vocab(tmp_path / "peaky.vocab", ["a", "b"])
        return post, vocab

    def test_decoders_agree_on_peaky_input(self, peaky, capsys):
        post, vocab = peaky
        for mode in ("greedy", "time-sync", "label-sync"):
            code, out, _ = run(["ctc", "decode", "--posteriors", post,
                                "--vocab", vocab, "--mode", mode], capsys)
            assert code == 0
            assert out.splitlines()[0] == "HYP=a b"

    def test_blank_dominant_decodes_empty(self, tmp_path, capsys):
        post = write_post(tmp_path / "blank.post",
                          [[0.9, 0.05, 0.05], [0.9, 0.05, 0.05]])
        vocab = write_vocab(tmp_path / "blank.vocab", ["a", "b"])
        code, out, _ = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "greedy"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "HYP="

    def test_fusion_and_prior_flags(self, peaky, tmp_path, capsys):
        post, vocab = peaky
        lm = write_text(tmp_path / "lm.counts",
                        "a\t2\nb\t2\n</s>\t2\n<s> a\t2\na b\t2\nb </s>\t2\n")
        code, out, _ = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "label-sync",
                            "--lm", lm, "--lm-scale", "0.5"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("HYP=")
        code, out, _ = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "time-sync",
                            "--prior-from", post, "--prior-scale", "0.3"],
                           capsys)
        assert code == 0
        assert out.splitlines()[0] == "HYP=a b"

    def test_fusion_flags_a_mode_ignores_are_rejected(self, peaky, tmp_path, capsys):
        post, vocab = peaky
        lm = write_text(tmp_path / "lm.counts", "a\t2\nb\t2\n</s>\t2\n")
        for mode, flags in (("label-sync", ["--prior-from", post, "--prior-scale", "0.5"]),
                            ("greedy", ["--prior-from", post, "--prior-scale", "0.5"]),
                            ("greedy", ["--lm", lm, "--lm-scale", "0.5"])):
            code, out, err = run(["ctc", "decode", "--posteriors", post,
                                  "--vocab", vocab, "--mode", mode, *flags], capsys)
            assert code == 1, (mode, flags)
            assert f"{mode} mode" in err
            assert out == ""

    # each file flag names a path that does not exist: the refusal opens nothing
    @pytest.mark.parametrize("mode, flags, flag", [
        ("greedy", ["--lm", "absent.counts"], "--lm"),
        ("greedy", ["--beam", "4"], "--beam"),
        ("greedy", ["--prior-from", "absent.post"], "--prior-from"),
        ("label-sync", ["--prior-from", "absent.post"], "--prior-from"),
        ("greedy", ["--alpha", "0.5"], "--alpha"),
        ("time-sync", ["--alpha", "nan"], "--alpha"),
        ("label-sync", ["--alpha", "-5", "--lm-scale", "0.3"], "--alpha"),
    ])
    def test_inputs_a_mode_ignores_are_rejected(self, mode, flags, flag, peaky, tmp_path,
                                                capsys):
        post, vocab = peaky
        flags = [str(tmp_path / v) if v.startswith("absent") else v for v in flags]
        code, out, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                              "--mode", mode, *flags], capsys)
        assert (code, out) == (1, ""), err
        assert err.startswith(f"error: {flag} applies only to ")
        assert f"{mode} mode ignores it" in err

    def test_json_reports_the_beam_width_read(self, peaky, capsys):
        post, vocab = peaky
        for mode, flags, beam in (("greedy", [], 8), ("time-sync", [], 8),
                                  ("label-sync", ["--beam", "3"], 3)):
            code, out, _ = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                                "--mode", mode, "--json", *flags], capsys)
            assert code == 0
            assert json.loads(out.splitlines()[1])["beam"] == beam

    def test_alpha_overflowing_the_lm_denominator(self, peaky, tmp_path, capsys):
        post, vocab = peaky
        lm = write_text(tmp_path / "lm.counts", "a\t2\nb\t2\n</s>\t2\n")
        code, out, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                              "--mode", "time-sync", "--lm", lm, "--alpha", "1e308"], capsys)
        assert (code, out) == (1, "")
        assert "alpha 1e+308 overflows the LM denominator" in err

    @pytest.fixture
    def lm_without_b(self, tmp_path):
        """A bigram count file that never names the vocabulary label 'b'."""
        return write_text(tmp_path / "a_only.counts", "a\t2\n</s>\t2\n<s> a\t2\na </s>\t2\n")

    def test_vocab_label_missing_from_lm(self, peaky, lm_without_b, capsys):
        post, vocab = peaky
        for mode in ("time-sync", "label-sync"):
            code, _, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                                "--mode", mode, "--lm", lm_without_b,
                                "--lm-scale", "0.3"], capsys)
            assert code == 2, mode
            assert "'b'" in err, mode

    # with fusion, every vocabulary label must be an LM token before any frame is read
    @pytest.mark.parametrize("mode", ["time-sync", "label-sync"])
    @pytest.mark.parametrize("frames", [0, 2])
    def test_lm_missing_a_label_refused_at_any_length(self, mode, frames, tmp_path, capsys):
        post = (write_post(tmp_path / "two.post", [[0.2, 0.7, 0.1], [0.6, 0.1, 0.3]]) if frames
                else write_text(tmp_path / "empty.post", "0 3\n"))
        vocab = write_vocab(tmp_path / "ab.vocab", ["a", "b"])
        lm = write_text(tmp_path / "c_only.counts", "c\t2\n</s>\t2\n")
        code, out, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                              "--mode", mode, "--lm", lm, "--lm-scale", "0.3"], capsys)
        assert (code, out) == (2, "")
        assert "token 'a' outside the model vocabulary" in err

    def test_empty_posteriorgram_decodes_with_fusion(self, peaky, tmp_path, capsys):
        _, vocab = peaky
        post = write_text(tmp_path / "empty.post", "0 3\n")
        lm = write_text(tmp_path / "ab.counts", "a\t2\nb\t1\n</s>\t2\n<s> a\t2\na </s>\t2\n")
        for mode in ("time-sync", "label-sync"):
            code, out, _ = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                                "--mode", mode, "--lm", lm, "--lm-scale", "0.3"], capsys)
            assert code == 0, mode
            assert out.splitlines()[0] == "HYP=", mode

    def test_prior_directory(self, peaky, tmp_path, capsys):
        post, vocab = peaky
        prior_dir = tmp_path / "priors"
        prior_dir.mkdir()
        write_post(prior_dir / "one.post",
                   [[0.5, 0.25, 0.25], [0.6, 0.2, 0.2]])
        write_post(prior_dir / "two.post", [[0.4, 0.3, 0.3]])
        code, out, _ = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "time-sync",
                            "--prior-from", str(prior_dir),
                            "--prior-scale", "0.2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "HYP=a b"
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "time-sync",
                            "--prior-from", str(empty)], capsys)
        assert code == 2
        assert "no files" in err

    @pytest.mark.parametrize("files, message", [
        ({"wide.post": [[0.25] * 4] * 5},
         "prior file {dir}/wide.post has 4 symbols, not 3"),
        ({"a.post": [[0.5, 0.25, 0.25]], "b.post": [[0.25] * 4]},
         "prior file {dir}/b.post has 4 symbols, not 3"),
        ({"none.post": None}, "prior {dir} has no frames"),
    ], ids=["alphabet-size", "alphabets-disagree", "no-frames"])
    def test_bad_prior_files_are_bad_data(self, files, message, peaky, tmp_path, capsys):
        post, vocab = peaky
        prior_dir = tmp_path / "priors"
        prior_dir.mkdir()
        for name, rows in files.items():
            if rows is None:
                write_text(prior_dir / name, "0 3\n")
            else:
                write_post(prior_dir / name, rows)
        code, out, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                              "--mode", "time-sync", "--prior-from", str(prior_dir),
                              "--prior-scale", "0.3"], capsys)
        assert (code, out) == (2, "")
        assert err.strip() == "error: " + message.format(dir=prior_dir)

    def test_zero_beam_rejected(self, peaky, capsys):
        post, vocab = peaky
        code, _, err = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "time-sync",
                            "--beam", "0"], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("mode", ["time-sync", "label-sync"])
    def test_beam_wider_than_the_cap_rejected(self, mode, peaky, tmp_path, capsys):
        post, vocab = peaky
        code, out, _ = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                            "--mode", mode, "--beam", str(cli.MAX_BEAM), "--json"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[1])["beam"] == cli.MAX_BEAM
        # refused before any file is opened
        code, out, err = run(["ctc", "decode", "--posteriors", str(tmp_path / "absent.post"),
                              "--vocab", vocab, "--mode", mode,
                              "--beam", str(cli.MAX_BEAM + 1)], capsys)
        assert (code, out) == (1, "")
        assert err.strip() == f"error: --beam {cli.MAX_BEAM + 1} exceeds the maximum width 256"

    def test_vocab_size_mismatch(self, tmp_path, anchor, capsys):
        post, _ = anchor
        vocab = write_vocab(tmp_path / "wide.vocab", ["a", "b", "c"])
        code, _, err = run(["ctc", "loss", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a"], capsys)
        assert code == 2
        assert "symbols" in err

    def test_rows_beyond_the_header(self, peaky, tmp_path, capsys):
        _, vocab = peaky
        post = write_text(tmp_path / "long.post",
                          "2 3\n0 -9 -9\n0 -9 -9\n1 2 3\ngarbage here\n")
        code, out, err = run(["ctc", "decode", "--posteriors", post,
                              "--vocab", vocab], capsys)
        assert (code, out) == (2, "")
        assert "posteriorgram file has content after its 2 rows" in err

    @pytest.mark.parametrize("body, message", [
        ("2 3\n0 -9 -9\nzero -9 -9\n", "posteriorgram row 1: could not convert"),
        ("2 3\n0 -9 -9\n0 -9\n", "posteriorgram row 1 has 2 values, expected 3"),
        ("-1 3\n", "bad posteriorgram shape -1 x 3"),
    ])
    def test_malformed_posteriorgram(self, body, message, peaky, tmp_path, capsys):
        _, vocab = peaky
        post = write_text(tmp_path / "bad.post", body)
        code, out, err = run(["ctc", "decode", "--posteriors", post,
                              "--vocab", vocab], capsys)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha(self, alpha, peaky, tmp_path, capsys):
        post, vocab = peaky
        lm = write_text(tmp_path / "lm.counts", "a\t2\nb\t2\n</s>\t2\n")
        code, out, err = run(["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                              "--mode", "time-sync", "--lm", lm, "--lm-scale", "0.3",
                              "--alpha", alpha], capsys)
        assert (code, out) == (1, "")
        assert "alpha must be finite and non-negative" in err

    def test_unknown_mode_rejected(self, anchor, capsys):
        post, vocab = anchor
        code, _, _ = run(["ctc", "decode", "--posteriors", post,
                          "--vocab", vocab, "--mode", "psychic"], capsys)
        assert code == 1


class TestPriorCorrectionOverflow:
    """A time-sync prior correction that could overflow over T frames exits 3.

    Every frame is (blank, a, b, c) = (0.4, 0.3, 0.1, 0.2), so the prior
    from the same file makes b the most boosted symbol.
    """

    ROW = (0.4, 0.3, 0.1, 0.2)

    @pytest.fixture
    def files(self, tmp_path):
        return (write_post(tmp_path / "p.post", [self.ROW] * 20),
                write_vocab(tmp_path / "p.vocab", ["a", "b", "c"]))

    @staticmethod
    def decode(post, vocab, prior, *flags, capsys):
        return TestOverflowingCheckpoint.run_quietly(
            ["ctc", "decode", "--mode", "time-sync", "--posteriors", post, "--vocab", vocab,
             "--prior-from", prior, *flags], capsys)

    def test_largest_finite_correction_still_decodes(self, files, capsys):
        post, vocab = files
        assert self.decode(post, vocab, post, "--prior-scale", "1e306",
                           capsys=capsys) == (0, "HYP=b\n", "")

    def test_overflowing_correction_is_refused(self, files, tmp_path, capsys):
        post, vocab = files
        # a c column of -inf once met the +inf correction and emptied the beam
        no_c = tmp_path / "no_c.post"
        no_c.write_text("20 4\n" + f"{math.log(0.5)} {math.log(0.375)} "
                        f"{math.log(0.125)} -inf\n" * 20, encoding="utf-8")
        # 150 frames overflow at a scale that 20 frames survive
        long_post = write_post(tmp_path / "long.post", [self.ROW] * 150)
        for scored, scale, frames in ((post, "1e308", 20), (str(no_c), "1e308", 20),
                                      (long_post, "1e306", 150)):
            assert self.decode(scored, vocab, post, "--prior-scale", scale, capsys=capsys) == (
                3, "", f"error: prior correction overflows over {frames} frames; "
                       "lower the prior scale\n")

    @pytest.mark.parametrize("mode", ["time-sync", "label-sync"])
    def test_overflowing_lm_scale_reads_minus_infinity(self, mode, files, tmp_path, capsys):
        post, vocab = files
        lm = write_text(tmp_path / "lm.counts", "a\t2\nb\t1\nc\t1\n</s>\t2\n<s> a\t2\n")
        code, out, err = TestOverflowingCheckpoint.run_quietly(
            ["ctc", "decode", "--mode", mode, "--posteriors", post, "--vocab", vocab,
             "--lm", lm, "--lm-scale", "1e308"], capsys)
        assert (code, err) == (0, "")
        assert out == run(["ctc", "decode", "--mode", mode, "--posteriors", post,
                           "--vocab", vocab, "--lm", lm, "--lm-scale", "1e200"], capsys)[1]


class TestEvalCommands:
    def test_wer_zero_on_identical_files(self, tmp_path, capsys):
        ref = write_text(tmp_path / "ref.txt", "the cat sat\non a mat\n")
        hyp = write_text(tmp_path / "hyp.txt", "the cat sat\non a mat\n")
        code, out, _ = run(["eval", "wer", "--ref", ref, "--hyp", hyp],
                           capsys)
        assert code == 0
        assert out.splitlines()[0] == "WER=0.000000 S=0 D=0 I=0 N=6"

    def test_wer_counts_deletions(self, tmp_path, capsys):
        ref = write_text(tmp_path / "ref.txt", "the cat sat\n")
        hyp = write_text(tmp_path / "hyp.txt", "the cat\n")
        code, out, _ = run(["eval", "wer", "--ref", ref, "--hyp", hyp],
                           capsys)
        assert code == 0
        assert out.splitlines()[0] == "WER=0.333333 S=0 D=1 I=0 N=3"

    def test_wer_line_count_mismatch(self, tmp_path, capsys):
        ref = write_text(tmp_path / "ref.txt", "a\nb\n")
        hyp = write_text(tmp_path / "hyp.txt", "a\n")
        code, _, err = run(["eval", "wer", "--ref", ref, "--hyp", hyp],
                           capsys)
        assert code == 2
        assert "lines" in err

    def test_wer_empty_reference(self, tmp_path, capsys):
        ref = write_text(tmp_path / "ref.txt", "\n")
        hyp = write_text(tmp_path / "hyp.txt", "hello\n")
        code, _, err = run(["eval", "wer", "--ref", ref, "--hyp", hyp],
                           capsys)
        assert code == 1
        assert "reference" in err

    def test_ppl_exactly_four(self, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "a\t1\nb\t1\nc\t1\n</s>\t1\n")
        text = write_text(tmp_path / "text.txt", "a b c\n")
        for extra in ([], ["--alpha", "0"]):
            code, out, _ = run(["eval", "ppl", "--lm", lm, "--text", text,
                                *extra], capsys)
            assert code == 0
            assert out.splitlines()[0] == "PPL=4.000000"

    def test_ppl_oov_token(self, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "a\t1\n</s>\t1\n")
        text = write_text(tmp_path / "text.txt", "a z\n")
        code, _, err = run(["eval", "ppl", "--lm", lm, "--text", text],
                           capsys)
        assert code == 2
        assert "z" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_ppl_non_finite_alpha(self, alpha, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "a\t1\n</s>\t1\n")
        text = write_text(tmp_path / "text.txt", "a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text,
                              "--alpha", alpha], capsys)
        assert (code, out) == (1, "")
        assert "alpha must be finite and non-negative" in err

    def test_ppl_with_no_counts_and_no_smoothing(self, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "a\t0\nb\t0\n</s>\t0\n")
        text = write_text(tmp_path / "text.txt", "a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text,
                              "--alpha", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: no counts and no smoothing leaves nothing to predict\n"

    def test_ppl_alpha_overflowing_the_denominator(self, tmp_path, capsys):
        # 1e308 * 2 overflows the add-alpha denominator, which would give PPL=inf
        lm = write_text(tmp_path / "lm.counts", "a\t1\n</s>\t1\n")
        text = write_text(tmp_path / "text.txt", "a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text,
                              "--alpha", "1e308", "--json"], capsys)
        assert (code, out) == (1, "")
        assert "alpha 1e+308 overflows the LM denominator" in err
        # 1.7e308 + 3e307 overflows the denominator of context "a" alone
        lm = write_text(tmp_path / "lm.counts", f"a\t1\na b\t{17 * 10**307}\n")
        text = write_text(tmp_path / "text.txt", "a b\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text,
                              "--alpha", "1e307"], capsys)
        assert (code, out) == (1, "")
        assert "alpha 1e+307 overflows the LM denominator" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_ppl_of_an_impossible_event_is_refused(self, extra, tmp_path, capsys):
        # with no smoothing, EOS after "a" has count 0, so PPL is inf
        lm = write_text(tmp_path / "lm.counts", "a\t1\nb\t1\na b\t1\n")
        text = write_text(tmp_path / "text.txt", "b a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text,
                              "--alpha", "0", *extra], capsys)
        assert (code, out) == (3, "")
        assert "eval-ppl: result is not finite" in err

    @pytest.mark.parametrize("counts", ["a\t{huge}\n", "a\t{big}\nb\t{big}\n",
                                        "a\t1\na b\t{big}\na a\t{big}\n"],
                             ids=["count", "unigram-total", "context-total"])
    def test_ppl_counts_overflowing_a_float(self, counts, tmp_path, capsys):
        # 10**308 fits a float; 10**400, or the sum of two 10**308, does not
        lm = write_text(tmp_path / "lm.counts",
                        counts.format(huge=10**400, big=10**308))
        text = write_text(tmp_path / "text.txt", "a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text], capsys)
        assert (code, out) == (2, "")
        assert "count totals do not fit a finite float" in err

    def test_ppl_blank_count_file(self, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "\n  \n\n")
        text = write_text(tmp_path / "text.txt", "a\n")
        code, out, err = run(["eval", "ppl", "--lm", lm, "--text", text], capsys)
        assert (code, out) == (2, "")
        assert "count file holds no events" in err

    def test_ppl_malformed_counts(self, tmp_path, capsys):
        lm = write_text(tmp_path / "lm.counts", "a 1\n")
        text = write_text(tmp_path / "text.txt", "a\n")
        code, _, err = run(["eval", "ppl", "--lm", lm, "--text", text],
                           capsys)
        assert code == 2
        assert "n-gram" in err


class TestAnalyzeCommands:
    def test_cca_of_a_file_with_itself(self, tmp_path, capsys):
        rng = np.random.default_rng(401)
        feats = write_feats(tmp_path / "x.txt", rng.standard_normal((60, 3)))
        code, out, _ = run(["analyze", "cca", "--x", feats, "--y", feats,
                            "--reg", "1e-9", "--json"], capsys)
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("CCA=")
        assert float(line[4:]) > 0.999999
        payload = json.loads(out.splitlines()[1])
        assert len(payload["correlations"]) == 3

    def test_cca_row_count_mismatch(self, tmp_path, capsys):
        rng = np.random.default_rng(403)
        x = write_feats(tmp_path / "x.txt", rng.standard_normal((6, 2)))
        y = write_feats(tmp_path / "y.txt", rng.standard_normal((5, 2)))
        code, out, err = run(["analyze", "cca", "--x", x, "--y", y], capsys)
        assert (code, out) == (2, "")
        assert "6 rows in --x but 5 in --y" in err

    def test_cca_needs_two_rows(self, tmp_path, capsys):
        x = write_feats(tmp_path / "x.txt", [[1.0, 2.0]])
        code, out, err = run(["analyze", "cca", "--x", x, "--y", x], capsys)
        assert (code, out) == (2, "")
        assert "cca needs at least two rows, got 1" in err

    @pytest.mark.parametrize("reg", ["nan", "inf"])
    def test_cca_non_finite_reg(self, reg, tmp_path, capsys):
        x = write_feats(tmp_path / "x.txt", np.random.default_rng(404).standard_normal((6, 2)))
        code, out, err = run(["analyze", "cca", "--x", x, "--y", x, "--reg", reg], capsys)
        assert (code, out) == (1, "")
        assert "reg must be finite and non-negative" in err

    @pytest.mark.parametrize("blob, message", [
        (b"FTRX\x02\x00", "binary feature file truncated before shape"),
        (b"FTRX" + struct.pack("<II", 2, 0), "bad feature shape 2 x 0"),
    ])
    def test_malformed_binary_features(self, blob, message, tmp_path, capsys):
        path = tmp_path / "f.bin"
        path.write_bytes(blob)
        code, out, err = run(["analyze", "ssl-losses", "--features", str(path)], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_mi_recovers_label_entropy(self, tmp_path, capsys):
        # ten exact copies of each one-hot row: clustering is trivial
        data = np.repeat(np.eye(3), 10, axis=0)
        feats = write_feats(tmp_path / "f.txt", data)
        labels = write_text(tmp_path / "l.txt",
                            "".join(f"c{i}\n" for i in range(3)
                                    for _ in range(10)))
        code, out, _ = run(["analyze", "mi", "--features", feats,
                            "--labels", labels, "--clusters", "3"], capsys)
        assert code == 0
        value = float(out.splitlines()[0][3:])
        np.testing.assert_allclose(value, math.log(3.0), atol=1e-6)

    def test_mi_on_identical_rows(self, tmp_path, capsys):
        # every k-means++ distance is 0, so the second center is a uniform draw
        feats = write_feats(tmp_path / "f.txt", np.full((4, 2), 0.5))
        labels = write_text(tmp_path / "l.txt", "x\ny\nx\ny\n")
        code, out, _ = run(["analyze", "mi", "--features", feats,
                            "--labels", labels, "--clusters", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "MI=0.000000"

    def test_mi_label_count_mismatch(self, tmp_path, capsys):
        feats = write_feats(tmp_path / "f.txt", np.eye(3))
        labels = write_text(tmp_path / "l.txt", "a\nb\n")
        code, _, err = run(["analyze", "mi", "--features", feats,
                            "--labels", labels], capsys)
        assert code == 2
        assert "labels" in err

    def test_ssl_losses(self, tmp_path, capsys):
        # context equals target, one orthogonal negative, temperature 1
        feats = write_feats(tmp_path / "f.txt",
                            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        code, out, _ = run(["analyze", "ssl-losses", "--features", feats,
                            "--temperature", "1"], capsys)
        assert code == 0
        expected = math.log(1.0 + math.exp(-1.0))
        assert out.splitlines()[0] == f"CONTRASTIVE={expected:.6f}"

    def test_ssl_with_usage_matrix(self, tmp_path, capsys):
        feats = write_feats(tmp_path / "f.txt",
                            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        usage = write_feats(tmp_path / "u.txt", [[0.5, 0.5]])
        code, out, _ = run(["analyze", "ssl-losses", "--features", feats,
                            "--temperature", "1", "--usage", usage], capsys)
        assert code == 0
        line = out.splitlines()[0]
        assert f"DIVERSITY={-math.log(2.0) / 2.0:.6f}" in line

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_ssl_non_finite_temperature(self, temperature, tmp_path, capsys):
        feats = write_feats(tmp_path / "f.txt", [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        code, out, err = run(["analyze", "ssl-losses", "--features", feats,
                              "--temperature", temperature], capsys)
        assert (code, out) == (1, "")
        assert "temperature must be finite and positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["cca", "mi", "ssl-losses"])
    def test_non_finite_feature_file(self, command, value, tmp_path, capsys):
        feats = write_text(tmp_path / "f.txt", f"3 2\n1 0\n0 {value}\n1 1\n")
        labels = write_text(tmp_path / "l.txt", "a\nb\na\n")
        argv = {"cca": ["--x", feats, "--y", feats],
                "mi": ["--features", feats, "--labels", labels],
                "ssl-losses": ["--features", feats]}[command]
        code, out, err = run(["analyze", command, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == "error: feature matrix contains non-finite values\n"

    def test_ssl_needs_two_rows(self, tmp_path, capsys):
        feats = write_feats(tmp_path / "f.txt", [[1.0, 0.0]])
        code, _, err = run(["analyze", "ssl-losses", "--features", feats],
                           capsys)
        assert code == 2
        assert "two rows" in err


class TestGroundPipeline:
    def test_generate_train_eval_infer(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, out, _ = run(["ground", "gen", "--out", str(data_dir),
                            "--train-scenes", "60", "--dev-scenes", "20",
                            "--classes", "4", "--seed", "11"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "TRAIN=60 DEV=20"
        train_path = data_dir / "train.jsonl"
        dev_path = data_dir / "dev.jsonl"
        assert train_path.exists() and dev_path.exists()
        # same flags elsewhere reproduce the files byte for byte
        twin_dir = tmp_path / "twin"
        assert run(["ground", "gen", "--out", str(twin_dir),
                    "--train-scenes", "60", "--dev-scenes", "20",
                    "--classes", "4", "--seed", "11"], capsys)[0] == 0
        assert train_path.read_bytes() == (twin_dir / "train.jsonl").read_bytes()
        assert dev_path.read_bytes() == (twin_dir / "dev.jsonl").read_bytes()

        ckpt = tmp_path / "model.ckpt"
        code, out, _ = run(["ground", "train", "--data", str(train_path),
                            "--out", str(ckpt), "--epochs", "6",
                            "--batch", "16", "--quiet"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1  # --quiet hides the per-epoch log
        assert lines[0].startswith("LOSS=")

        code, out, _ = run(["ground", "eval", "--model", str(ckpt),
                            "--data", str(dev_path), "--json"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("AUDIO_ACC=")
        assert lines[1].startswith("MENTION_F1=")
        assert lines[2].startswith("ACC=")
        payload = json.loads(lines[3])
        assert payload["num_scenes"] == 20
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert "version" in payload

        code, out, _ = run(["ground", "infer", "--model", str(ckpt),
                            "--scene", str(dev_path), "--index", "0",
                            "--json"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("TARGET=")
        payload = json.loads(lines[1])
        assert payload["target"] in payload["candidates"]
        np.testing.assert_allclose(sum(payload["probs"]), 1.0, atol=1e-9)

        code, _, err = run(["ground", "infer", "--model", str(ckpt),
                            "--scene", str(dev_path), "--index", "99"],
                           capsys)
        assert code == 1
        assert "index" in err

    def test_training_is_reproducible(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["ground", "gen", "--out", str(data_dir),
                    "--train-scenes", "30", "--dev-scenes", "1",
                    "--classes", "4", "--seed", "21"], capsys)[0] == 0
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = tmp_path / name
            code, _, _ = run(["ground", "train", "--data",
                              str(data_dir / "train.jsonl"), "--out",
                              str(ckpt), "--epochs", "2", "--batch", "16",
                              "--quiet"], capsys)
            assert code == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_rejects_checkpoint_with_negative_width(self, tmp_path, capsys):
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), init_grounding_model(GroundingConfig(num_classes=4),
                                                        seed=0))
        tensors = read_tensors(good)
        tensors["config.head_hidden"] = np.array([-3.0])
        ckpt = tmp_path / "bad.ckpt"
        write_tensors(ckpt, tensors)
        data = str(tmp_path / "dev.jsonl")
        write_scenes(data, generate_scenes(GenConfig(num_scenes=2, num_classes=4)))
        code, out, err = run(["ground", "eval", "--model", str(ckpt), "--data", data],
                             capsys)
        assert (code, out) == (2, "")
        assert_one_error_naming(err, "config.head_hidden")

    # sha256 of train.jsonl and dev.jsonl from `ground gen --train-scenes 20
    # --dev-scenes 20 --seed 3`: pins the rng draw order and float formatting
    GOLDEN = {
        "features": ("b3687d9e7d56f50b2e95faa897303a16dbcf75c5bcf34f226e61b2f583b55604",
                     "de9eb9bbedd092d6b855dc5d21c932194aec1e05aa33d63e5ae6e65ed84edb6d"),
        "points": ("7b5bb96a2686213528fd822a1d1ecef7580c7f7c4d52963490ba6993929aeaf6",
                   "a65f39239d521d7c2d22fbdb9c35a2aea565783beeea6a5c57c166563fd92ea9"),
    }

    @pytest.mark.parametrize("form", ["features", "points"])
    def test_gen_output_is_pinned(self, form, tmp_path, capsys):
        argv = ["ground", "gen", "--out", str(tmp_path), "--train-scenes", "20",
                "--dev-scenes", "20", "--seed", "3"]
        code, _, err = run(argv + (["--points"] if form == "points" else []), capsys)
        assert code == 0, err
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("train.jsonl", "dev.jsonl"))
        assert digests == self.GOLDEN[form]

    def test_both_forms_evaluate_alike_under_the_models_seed(self, tmp_path, capsys):
        # files generated under embed seed 7 and a model trained under 11: the
        # stats file is projected under the model's seed, as the points are
        gen = ["ground", "gen", "--train-scenes", "40", "--dev-scenes", "30",
               "--classes", "4", "--seed", "9", "--embed-seed", "7"]
        for form in ("stats", "points"):
            code, _, err = run([*gen, "--out", str(tmp_path / form),
                                *(["--points"] if form == "points" else [])], capsys)
            assert code == 0, err
        ckpt = str(tmp_path / "model.ckpt")
        train = str(tmp_path / "points" / "train.jsonl")
        code, _, err = run(["ground", "train", "--data", train, "--out", ckpt, "--epochs", "2",
                            "--batch", "16", "--embed-seed", "11", "--quiet"], capsys)
        assert code == 0, err
        outs = [run(["ground", "eval", "--model", ckpt, "--data",
                     str(tmp_path / form / "dev.jsonl"), "--json"], capsys)
                for form in ("stats", "points")]
        assert outs[0][0] == 0, outs[0][2]
        assert outs[0] == outs[1]

    def test_gen_keeps_at_most_two_chunks_of_scenes_alive(self, tmp_path, capsys,
                                                           monkeypatch):
        made, peak = [], [0]
        check = SyntheticScene.__post_init__

        def tracked(scene):
            check(scene)
            made.append(weakref.finalize(scene, lambda: None))
            peak[0] = max(peak[0], sum(ref.alive for ref in made))

        monkeypatch.setattr(SyntheticScene, "__post_init__", tracked)
        code, _, err = run(["ground", "gen", "--out", str(tmp_path), "--train-scenes",
                            "300", "--dev-scenes", "5"], capsys)
        assert code == 0, err
        assert len(made) >= 305
        # the chunk being written and the one being generated, never a split
        assert _CHUNK <= peak[0] <= 2 * _CHUNK

    def test_gen_calls_generate_scenes_once_per_chunk(self, tmp_path, capsys,
                                                      monkeypatch):
        # the benchmark's tracer wraps generate_scenes and counts len(result)
        # as scenes made, so each call must return a list
        results = []
        original = scene_module.generate_scenes

        def counted(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(scene_module, "generate_scenes", counted)
        code, _, err = run(["ground", "gen", "--out", str(tmp_path), "--train-scenes",
                            "70", "--dev-scenes", "5"], capsys)
        assert code == 0, err
        assert [type(result) for result in results] == [list] * 3
        assert [len(result) for result in results] == [64, 6, 5]

    @pytest.mark.parametrize("command", ["train", "eval", "infer"])
    def test_empty_scene_file_is_bad_data(self, command, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(str(ckpt), init_grounding_model(GroundingConfig(num_classes=4)))
        argv = {"train": ["--data", str(empty), "--out", str(tmp_path / "new.ckpt")],
                "eval": ["--model", str(ckpt), "--data", str(empty)],
                "infer": ["--model", str(ckpt), "--scene", str(empty)]}[command]
        code, out, err = run(["ground", command] + argv, capsys)
        assert code == 2 and out == "", err
        assert err == f"error: no scenes in {empty}\n"

    def test_train_rejects_missing_data(self, tmp_path, capsys):
        code, _, err = run(["ground", "train", "--data",
                            str(tmp_path / "absent.jsonl"), "--out",
                            str(tmp_path / "m.ckpt")], capsys)
        assert code == 2
        assert err


class TestStreamedSceneFiles:
    """`ground eval` and `ground infer` read their scene file one line at a time."""

    @pytest.fixture
    def files(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        write_scenes(str(path), generate_scenes(GenConfig(num_scenes=70, num_classes=4,
                                                          seed=5)))
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=2)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(str(ckpt), model)
        return path, str(ckpt), model

    def infer(self, files, index, capsys):
        path, ckpt, _ = files
        return run(["ground", "infer", "--model", ckpt, "--scene", str(path),
                    "--index", str(index), "--json"], capsys)

    def test_infer_grounds_the_chosen_scene(self, files, capsys):
        scenes, grounded = read_scenes(str(files[0])), 0
        for index in (0, 1, 37, 63, 64, 69):
            code, out, err = self.infer(files, index, capsys)
            try:
                expected = ground(files[2], scenes[index])
            except GroundingFailure as exc:
                assert (code, out, err) == (3, "", f"error: {exc}\n")
                continue
            assert code == 0, err
            payload = json.loads(out.splitlines()[-1])
            assert payload["target"] == expected.winner_index
            assert payload["probs"] == [float(p) for p in expected.probs]
            grounded += 1
        assert grounded >= 3

    @pytest.mark.parametrize("index", [70, -1])
    def test_out_of_range_names_the_last_index(self, files, index, capsys):
        assert self.infer(files, index, capsys) == (
            1, "", f"error: scene index {index} outside 0..69\n")

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_a_bad_line_after_the_scenes_used_is_still_bad_data(self, files, command,
                                                               capsys):
        path, ckpt, _ = files
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{}\n")
        flag = {"eval": ["--data"], "infer": ["--index", "0", "--scene"]}[command]
        assert run(["ground", command, "--model", ckpt, *flag, str(path)], capsys) == (
            2, "", "error: line 71: bad scene record: 'objects'\n")


class TestGroundArgumentBounds:
    """Negative seeds and oversized class counts are usage errors (exit 1)."""

    @staticmethod
    def assert_usage_error(argv, capsys, message):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "", err
        assert "internal error" not in err and message in err

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_scenes(str(path), generate_scenes(GenConfig(num_scenes=4, num_classes=4)),
                     points=False)
        return str(path)

    @pytest.mark.parametrize("flag", ["--seed", "--embed-seed"])
    def test_gen_negative_seed(self, flag, tmp_path, capsys):
        self.assert_usage_error(["ground", "gen", "--out", str(tmp_path / "g"),
                                 "--train-scenes", "2", "--dev-scenes", "2",
                                 flag, "-1"], capsys, "non-negative")
        assert not (tmp_path / "g").exists()  # rejected before anything is made

    @pytest.mark.parametrize("flag", ["--seed", "--embed-seed"])
    def test_train_negative_seed(self, flag, data, tmp_path, capsys):
        self.assert_usage_error(["ground", "train", "--data", data, "--epochs", "1",
                                 "--out", str(tmp_path / "m.ckpt"), flag, "-1"],
                                capsys, "non-negative")

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_train_non_finite_learning_rate(self, lr, data, tmp_path, capsys):
        self.assert_usage_error(["ground", "train", "--data", data, "--epochs", "1",
                                 "--out", str(tmp_path / "m.ckpt"), "--lr", lr],
                                capsys, "learning rate must be finite and non-negative")
        assert not (tmp_path / "m.ckpt").exists()

    def test_gen_class_count_bound(self, tmp_path, capsys):
        argv = ["ground", "gen", "--train-scenes", "1", "--dev-scenes", "1"]
        for classes in (10**12, MAX_CLASSES + 1):
            self.assert_usage_error(argv + ["--out", str(tmp_path / "g"),
                                            "--classes", str(classes)],
                                    capsys, f"at most {MAX_CLASSES}, got")
            assert not (tmp_path / "g").exists()
        code, _, err = run(argv + ["--out", str(tmp_path / "ok"),
                                   "--classes", str(MAX_CLASSES)], capsys)
        assert code == 0, err

    def test_train_class_count_bound(self, data, tmp_path, capsys):
        for classes in (10**12, MAX_CLASSES + 1):
            self.assert_usage_error(["ground", "train", "--data", data, "--epochs", "1",
                                     "--out", str(tmp_path / "m.ckpt"),
                                     "--classes", str(classes)],
                                    capsys, f"at most {MAX_CLASSES}, got")


class TestGroundInputValidation:
    """Non-finite or out-of-range grounding inputs exit 2, never 0 or 3."""

    @staticmethod
    def dataset(tmp_path, edit=None):
        scenes = generate_scenes(GenConfig(num_scenes=2, num_classes=4))
        path = tmp_path / "dev.jsonl"
        write_scenes(str(path), scenes, points=False)
        if edit is not None:
            lines = path.read_text(encoding="utf-8").splitlines()
            record = json.loads(lines[0])
            edit(record)
            lines[0] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def checkpoint(tmp_path, edit=None):
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=0)
        if edit is not None:
            edit(model.params)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        return path

    def assert_data_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2, err
        assert "internal error" not in err and out == ""

    def test_nan_audio(self, tmp_path, capsys):
        data = self.dataset(tmp_path, lambda r: r["audio"].__setitem__(0, math.nan))
        ckpt = self.checkpoint(tmp_path)
        self.assert_data_error(["ground", "infer", "--model", ckpt,
                                "--scene", data], capsys)
        self.assert_data_error(["ground", "eval", "--model", ckpt,
                                "--data", data], capsys)

    def test_infinite_bbox_center(self, tmp_path, capsys):
        data = self.dataset(tmp_path, lambda r: r["objects"][0]["bbox"][
            "center"].__setitem__(0, math.inf))
        self.assert_data_error(["ground", "eval", "--model",
                                self.checkpoint(tmp_path), "--data", data],
                               capsys)

    def test_negative_class_id(self, tmp_path, capsys):
        data = self.dataset(tmp_path, lambda r: r["objects"][0].__setitem__(
            "class_id", -3))
        self.assert_data_error(["ground", "eval", "--model",
                                self.checkpoint(tmp_path), "--data", data],
                               capsys)

    def test_feature_form_file_is_refused(self, tmp_path, capsys):
        # the earlier elided form: each object's 32-wide shape feature, no statistics
        def bake(record):
            for obj in record["objects"]:
                del obj["stats"]
                obj["feature"] = [0.25] * 32

        code, out, err = run(["ground", "eval", "--model", self.checkpoint(tmp_path),
                              "--data", self.dataset(tmp_path, bake)], capsys)
        assert (code, out) == (2, "")
        assert_one_error_naming(err, "line 1: bad scene record: 'stats'")

    def test_nan_checkpoint_weight(self, tmp_path, capsys):
        ckpt = self.checkpoint(
            tmp_path, lambda p: p["head.w0"].__setitem__((0, 0), math.nan))
        self.assert_data_error(["ground", "eval", "--model", ckpt,
                                "--data", self.dataset(tmp_path)], capsys)

    def test_oversized_tensor_header(self, tmp_path, capsys):
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(b"A3VG" + struct.pack("<I", 1) + struct.pack("<I", 1)
                         + b"x" + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1))
        self.assert_data_error(["ground", "eval", "--model", str(ckpt),
                                "--data", self.dataset(tmp_path)], capsys)

    @pytest.mark.parametrize("body, message", [
        (struct.pack("<I", 10) + b"head", "checkpoint truncated while reading tensor name"),
        (struct.pack("<I", 1) + b"x" + struct.pack("<I", 9), "implausible rank 9 for tensor x"),
    ])
    def test_broken_tensor_header(self, body, message, tmp_path, capsys):
        ckpt = tmp_path / "broken.ckpt"
        ckpt.write_bytes(b"A3VG" + struct.pack("<I", 1) + body)
        code, out, err = run(["ground", "eval", "--model", str(ckpt),
                              "--data", self.dataset(tmp_path)], capsys)
        assert (code, out) == (2, ""), err
        assert message in err

    # 1-3 bytes are too few for the next tensor's name length
    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_checkpoint_with_trailing_bytes(self, extra, tmp_path, capsys):
        ckpt = Path(self.checkpoint(tmp_path))
        with open(ckpt, "ab") as fh:
            fh.write(b"\x01" * extra)
        code, out, err = run(["ground", "eval", "--model", str(ckpt),
                              "--data", self.dataset(tmp_path)], capsys)
        assert (code, out) == (2, ""), err
        assert err == "error: checkpoint truncated while reading tensor name length\n"

    def test_repeated_checkpoint_tensor(self, tmp_path, capsys):
        ckpt = Path(self.checkpoint(tmp_path))
        name = b"head.b2"
        with open(ckpt, "ab") as fh:
            fh.write(struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1)
                     + struct.pack("<d", 123.0))
        code, out, err = run(["ground", "eval", "--model", str(ckpt),
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert "checkpoint repeats tensor head.b2" in err

    def forged_config(self, tmp_path, name, value):
        path = tmp_path / "model.ckpt"
        tensors = read_tensors(Path(self.checkpoint(tmp_path)))
        tensors[name] = value
        write_tensors(path, tensors)
        return str(path)

    def test_checkpoint_hidden_widths_of_rank_two(self, tmp_path, capsys):
        ckpt = self.forged_config(tmp_path, "config.cls_hidden", np.full((2, 2), 32.0))
        code, out, err = run(["ground", "eval", "--model", ckpt,
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert_one_error_naming(err, "config.cls_hidden is shape (2, 2)")

    def test_checkpoint_fractional_class_count(self, tmp_path, capsys):
        ckpt = self.forged_config(tmp_path, "config.num_classes", np.array(3.7))
        code, out, err = run(["ground", "eval", "--model", ckpt,
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert "config.num_classes must be integral" in err

    def test_checkpoint_layer_count_beyond_its_tensors(self, tmp_path, capsys):
        ckpt = self.forged_config(tmp_path, "config.attn_layers", np.array(1e12))
        code, out, err = run(["ground", "eval", "--model", ckpt,
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert_one_error_naming(err, "config.attn_layers is 1000000000000.0")

    def test_checkpoint_of_two_attention_layers(self, tmp_path, capsys):
        # the parameter tensors still fit: only the architecture tensor differs
        ckpt = self.forged_config(tmp_path, "config.attn_layers", np.array([2.0]))
        for argv in (["ground", "eval", "--model", ckpt, "--data", self.dataset(tmp_path)],
                     ["ground", "infer", "--model", ckpt, "--scene",
                      self.dataset(tmp_path), "--index", "0"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "", err
            assert_one_error_naming(
                err, "config.attn_layers is [2.0], this build's architecture has [1.0]")

    def test_checkpoint_without_its_loss_weights(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        tensors = read_tensors(Path(self.checkpoint(tmp_path)))
        del tensors["config.lambdas"]
        write_tensors(path, tensors)
        code, out, err = run(["ground", "eval", "--model", str(path),
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert_one_error_naming(err, "checkpoint missing config.lambdas")

    def test_checkpoint_class_count_above_the_maximum(self, tmp_path, capsys):
        ckpt = self.forged_config(tmp_path, "config.num_classes",
                                  np.array(float(MAX_CLASSES + 1)))
        code, out, err = run(["ground", "eval", "--model", ckpt,
                              "--data", self.dataset(tmp_path)], capsys)
        assert code == 2 and out == "", err
        assert "bad checkpoint config: need at least two classes and at most" in err

    @staticmethod
    def move_target_to_slot_one(record):
        objs, t = record["objects"], record["target_index"]
        objs[1], objs[t] = objs[t], objs[1]
        record["target_index"] = True

    # each edit leaves the intended integer value, so only the JSON type is wrong
    @pytest.mark.parametrize("edit", [
        lambda r: r["objects"][0].__setitem__("class_id", r["objects"][0]["class_id"] + 0.5),
        lambda r: r.__setitem__("target_index", r["target_index"] + 0.5),
        lambda r: r.__setitem__("relation_id", str(r["relation_id"])),
        move_target_to_slot_one,
        lambda r: r.__setitem__("target_class", float(r["target_class"])),
        lambda r: r["mentioned_classes"].__setitem__(1, r["mentioned_classes"][1] + 0.0),
    ], ids=["class_id-1.5", "target_index-0.5", "relation_id-string",
            "target_index-true", "target_class-float", "mentioned-float"])
    def test_scene_integer_fields_must_be_json_integers(self, edit, tmp_path, capsys):
        data = self.dataset(tmp_path, edit)
        for argv in (["ground", "train", "--data", data, "--classes", "4",
                      "--epochs", "1", "--out", str(tmp_path / "m.ckpt")],
                     ["ground", "eval", "--model", self.checkpoint(tmp_path),
                      "--data", data]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "", err
            assert err.startswith("error: line 1: ") and "JSON integer" in err

    @pytest.mark.parametrize("edit", [
        # the object before the target (cyclically) is never the target
        lambda r: r["objects"][r["target_index"] - 1].__setitem__("class_id", 10**12),
        lambda r: r["mentioned_classes"].append(10**12),
    ], ids=["object-class", "mentioned-class"])
    def test_inferred_class_count_needs_every_smaller_id(self, edit, tmp_path, capsys):
        path = tmp_path / "train.jsonl"
        write_scenes(str(path), generate_scenes(GenConfig(num_scenes=12, num_classes=4)),
                     points=False)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        edit(record)
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["ground", "train", "--data", str(path), "--epochs", "1",
                "--out", str(tmp_path / "m.ckpt")]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", err
        assert err.startswith("error: line 3: class id 1000000000000 ")
        assert "class 4 occurs nowhere" in err and "--classes" in err


class TestOverflowingCheckpoint:
    """Finite weights whose scores overflow exit 3 with one line and no warnings."""

    @pytest.fixture
    def data(self, tmp_path, capsys):
        code, _, err = run(["ground", "gen", "--out", str(tmp_path), "--train-scenes", "60",
                            "--dev-scenes", "20", "--seed", "1"], capsys)
        assert code == 0, err
        return tmp_path

    @staticmethod
    def run_quietly(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(argv, capsys)
        assert caught == []
        return result

    @staticmethod
    def train(data, capsys, *flags):
        ckpt = str(data / "m.ckpt")
        code, _, err = run(["ground", "train", "--data", str(data / "train.jsonl"),
                            "--out", ckpt, "--quiet", *flags], capsys)
        assert code == 0, err
        return ckpt

    def test_eval_and_infer_refuse_non_finite_scores(self, data, capsys):
        # one Adam step at 1e300 leaves every weight finite, but attention overflows
        ckpt = self.train(data, capsys, "--epochs", "1", "--batch", "100", "--lr", "1e300")
        for command, flag in (("eval", "--data"), ("infer", "--scene")):
            code, out, err = self.run_quietly(["ground", command, "--model", ckpt,
                                               flag, str(data / "dev.jsonl")], capsys)
            assert (code, out) == (3, ""), command
            assert err == ("error: grounding scores are not finite: "
                           "the model overflows on this input\n")

    def test_diverging_training_prints_one_line(self, data, capsys):
        code, out, err = self.run_quietly(
            ["ground", "train", "--data", str(data / "train.jsonl"), "--out",
             str(data / "m.ckpt"), "--lr", "1e308", "--quiet"], capsys)
        assert (code, out, err) == (3, "", "error: non-finite loss at epoch 0\n")

    def test_overflowing_last_step_writes_no_checkpoint(self, data, capsys):
        # 100x audio puts a gradient entry above 1.8, so one Adam step at 1e308
        # overflows after a finite loss
        records = [json.loads(line) for line in
                   (data / "train.jsonl").read_text(encoding="utf-8").splitlines()]
        loud = data / "loud.jsonl"
        loud.write_text("".join(json.dumps({**r, "audio": [100.0 * a for a in r["audio"]]})
                                + "\n" for r in records), encoding="utf-8")
        ckpt = data / "m.ckpt"
        code, out, err = self.run_quietly(
            ["ground", "train", "--data", str(loud), "--out", str(ckpt), "--epochs", "1",
             "--batch", "100", "--lr", "1e308", "--quiet"], capsys)
        assert (code, out, err) == (3, "", "error: non-finite parameters after epoch 0\n")
        assert not ckpt.exists()

    def test_overflowing_class_head_prints_one_line(self, data, capsys):
        # a constant hidden layer of tanh(1) against rows of +-1e308: class logits +-inf
        ckpt = Path(self.train(data, capsys, "--epochs", "1"))
        tensors = read_tensors(ckpt)
        tensors["cls.w0"][:] = 0.0
        tensors["cls.b0"][:] = 1.0
        tensors["cls.w1"][:2] = [[1e308], [-1e308]]
        write_tensors(ckpt, tensors)
        code, out, err = self.run_quietly(["ground", "eval", "--model", str(ckpt), "--data",
                                           str(data / "dev.jsonl")], capsys)
        assert (code, out) == (3, "")
        assert err == "error: grounding scores are not finite: the model overflows on this input\n"

    @pytest.mark.parametrize("lr", ["1e20", "1e150"])
    def test_huge_but_finite_scores_still_evaluate(self, lr, data, capsys):
        ckpt = self.train(data, capsys, "--epochs", "1", "--batch", "30", "--lr", lr)
        code, out, err = run(["ground", "eval", "--model", ckpt, "--data",
                              str(data / "dev.jsonl"), "--json"], capsys)
        assert code == 0, err
        payload = json.loads(out.splitlines()[-1])
        assert payload["num_scenes"] == 20 and 0.0 <= payload["accuracy"] <= 1.0

    def test_eval_and_infer_agree_near_overflow(self, data, capsys):
        # scene 0 scored alone and inside eval's batch rounds alike, so both
        # commands reach the same verdict on these huge scores
        ckpt = self.train(data, capsys, "--epochs", "1", "--batch", "30", "--lr", "1e150")
        codes = [run(["ground", command, "--model", ckpt, flag, str(data / "dev.jsonl"),
                      *extra], capsys)[0]
                 for command, flag, extra in (("eval", "--data", []),
                                              ("infer", "--scene", ["--index", "0"]))]
        assert codes[0] == codes[1]


class TestCheckpointFormat:
    def test_config_tensors_are_pinned(self, tmp_path):
        cfg = GroundingConfig(num_classes=5, d_audio=12, embed_seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_grounding_model(cfg, seed=3))
        tensors = read_tensors(path)
        config = {k: v for k, v in tensors.items() if k.startswith("config.")}
        # every entry is a rank-1 float64 vector; a number is one element.
        # The ten architecture entries are the same in every checkpoint.
        expected = {
            "config.num_classes": [5.0], "config.d_obj": [32.0],
            "config.d_label": [8.0], "config.d_audio": [12.0],
            "config.attn_heads": [2.0], "config.attn_dim": [16.0],
            "config.attn_layers": [1.0], "config.cls_hidden": [32.0],
            "config.omd_hidden": [32.0], "config.head_hidden": [64.0, 32.0],
            "config.lambdas": [1.0, 1.0, 1.0], "config.omd_threshold": [0.5],
            "config.embed_seed": [11.0],
        }
        assert sorted(config) == sorted(expected)
        for name, value in expected.items():
            want = np.array(value, dtype=np.float64)
            assert config[name].ndim == want.ndim, name
            assert config[name].shape == want.shape, name
            assert np.array_equal(config[name], want), name
        # config, the cls/omd/head MLP layers, 2 stacks x 1 layer x 7 weights
        assert len(tensors) == 13 + 2 * 2 + 2 * 2 + 2 * 3 + 2 * 1 * 7
        # the struct writer reproduces save_checkpoint's bytes exactly
        twin = tmp_path / "twin.ckpt"
        write_tensors(twin, tensors)
        assert twin.read_bytes() == path.read_bytes()


class TestCliBasics:
    def test_unknown_flag(self, capsys):
        code, _, err = run(["eval", "wer", "--bogus", "x"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["ground", "gen", "--out", "{tmp}/data", "--train", "5", "--dev", "5"],
        ["featurize", "--in", "{tmp}/x.wav", "--output", "{tmp}/x.feats"]])
    def test_abbreviated_flags_are_refused(self, argv, tmp_path, capsys):
        code, out, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
        assert (code, out) == (1, "")
        assert "error: " in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_version_flag(self, capsys):
        from speechground import __version__
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert out.strip() == __version__

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    @pytest.mark.parametrize("argv, code", [(["ctc"], 1), (["--version"], 0)])
    def test_console_entry_exits_with_mains_code(self, argv, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["speechground", *argv])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == code

    def test_internal_error_names_command_and_type(self, monkeypatch, capsys):
        def broken(path):
            raise ValueError("boom")

        # below the handler, which the cached parser binds directly
        monkeypatch.setattr("speechground.grounding.model.load_checkpoint", broken)
        code, out, err = run(["ground", "eval", "--model", "m", "--data", "d"],
                             capsys)
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error in ground eval: ValueError: boom"


class TestParserCache:
    """One parser serves every call in a process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_ground_flags_do_not_leak(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["ground", "gen", "--out", str(data), "--train-scenes", "24",
                    "--dev-scenes", "4", "--classes", "3"], capsys)[0] == 0
        ckpt = str(tmp_path / "m.ckpt")
        code, out, _ = run(["ground", "train", "--data", str(data / "train.jsonl"),
                            "--out", ckpt, "--epochs", "2", "--quiet"], capsys)
        assert code == 0 and len(out.splitlines()) == 1
        code, out, _ = run(["ground", "eval", "--model", ckpt,
                            "--data", str(data / "dev.jsonl")], capsys)
        assert code == 0
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "AUDIO_ACC", "MENTION_F1", "ACC"]

    def test_decode_flags_do_not_leak(self, tmp_path, capsys):
        post = write_post(tmp_path / "p.post", [[0.1, 0.8, 0.1], [0.8, 0.1, 0.1],
                                                [0.1, 0.1, 0.8]])
        vocab = write_vocab(tmp_path / "p.vocab", ["a", "b"])
        argv = ["ctc", "decode", "--posteriors", post, "--vocab", vocab,
                "--mode", "time-sync"]
        widths = []
        for extra in (["--beam", "3", "--json"], ["--json"]):
            code, out, _ = run(argv + extra, capsys)
            assert code == 0
            widths.append(json.loads(out.splitlines()[1])["beam"])
        assert widths == [3, 8]
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, "HYP=a b\n")


class TestLazyImports:
    def test_grounding_and_selfsup_load_on_first_use(self):
        script = "\n".join([
            "import sys",
            "import speechground.cli",
            "lazy = ('speechground.grounding', 'speechground.selfsup')",
            "assert not set(lazy) & set(sys.modules), sorted(sys.modules)",
            "import speechground",
            "assert speechground.grounding.train_toy is "
            "sys.modules['speechground.grounding.train'].train_toy",
            "names = {}",
            "exec('from speechground import *', names)",
            "assert all(names[n] is getattr(speechground, n) for n in speechground.__all__)",
            "assert names['selfsup'] is sys.modules['speechground.selfsup']",
            "try:",
            "    speechground.no_such_name",
            "except AttributeError as exc:",
            "    assert 'no_such_name' in str(exc)",
            "else:",
            "    raise AssertionError('no AttributeError')",
        ])
        done = self.fresh(script)
        assert done.returncode == 0, done.stderr

    @staticmethod
    def fresh(script, *argv):
        """`script` run with `argv` in a new interpreter that imports this `speechground`."""
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    # each command's exit code and the modules it must leave unloaded
    IMPORT_CASES = {
        "version": (["--version"], 0, {"numpy"}),
        "usage-error": (["ground", "gen", "--train-scenes", "1"], 1, {"numpy"}),
        "featurize": (["featurize", "--input", "{tmp}/x.wav", "--output", "{tmp}/x.feats"], 0,
                      {"speechground.ctc", "speechground.decode", "speechground.lm",
                       "speechground.metrics", "speechground.grounding"}),
        "label-sync": (["ctc", "decode", "--mode", "label-sync", "--posteriors", "{tmp}/p.post",
                        "--vocab", "{tmp}/p.vocab"], 0,
                       {"speechground.dsp", "speechground.fft", "speechground.metrics",
                        "speechground.grounding"}),
        "analyze-cca": (["analyze", "cca", "--x", "{tmp}/x.txt", "--y", "{tmp}/y.txt"], 0,
                        {"speechground.fft", "speechground.ctc", "speechground.decode",
                         "speechground.lm", "speechground.grounding"}),
        "ground-gen": (["ground", "gen", "--out", "{tmp}/data", "--train-scenes", "2",
                        "--dev-scenes", "1"], 0,
                       {"speechground.grounding.model", "speechground.grounding.train",
                        "speechground.ctc", "speechground.dsp"}),
    }

    @pytest.mark.parametrize("case", IMPORT_CASES)
    def test_each_command_loads_only_what_it_runs(self, case, tmp_path):
        argv, code, unloaded = self.IMPORT_CASES[case]
        write_wav(str(tmp_path / "x.wav"), Waveform(np.zeros(1600), 16000))
        write_post(tmp_path / "p.post", [[0.25, 0.75], [0.5, 0.5]])
        write_vocab(tmp_path / "p.vocab", ["a"])
        write_feats(tmp_path / "x.txt", [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]])
        write_feats(tmp_path / "y.txt", [[1.0], [0.0], [2.0]])
        script = "\n".join([
            "import json, sys",
            "from speechground.cli import main",
            "code = main(sys.argv[1:])",
            "print(json.dumps([code, sorted(sys.modules)]))",
        ])
        done = self.fresh(script, *(a.format(tmp=tmp_path) for a in argv))
        assert done.returncode == 0, done.stderr
        got, modules = json.loads(done.stdout.splitlines()[-1])
        assert got == code, done.stdout
        assert "speechground.cli" in modules
        assert unloaded.isdisjoint(modules), sorted(unloaded.intersection(modules))

    def test_module_getattr_in_process(self):
        import speechground
        with pytest.raises(AttributeError, match="no_such_name"):
            speechground.no_such_name
        assert speechground.__getattr__("selfsup") is importlib.import_module(
            "speechground.selfsup")
        grounding = importlib.import_module("speechground.grounding")
        with pytest.raises(AttributeError, match="no_such_name"):
            grounding.no_such_name
        assert grounding.__getattr__("model") is importlib.import_module(
            "speechground.grounding.model")


class TestTracedNames:
    def test_every_traced_name_is_still_an_attribute(self):
        # The benchmark's --trace wraps each (module, name) in its LAYERS
        # table through vars(owner)[attr], so a renamed or deleted function
        # would crash the trace.  The table is read from the file, not imported.
        source = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        layers = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
        assert layers
        for module, name in layers:
            owner = importlib.import_module(f"speechground.{module}")
            cls_name, _, attr = name.rpartition(".")
            if cls_name:
                owner = vars(owner)[cls_name]
            assert callable(vars(owner).get(attr)), f"{module}.{name}"


class TestMalformedInputFuzz:
    GARBAGE_TOKENS = ("}{", "nope", "-1e999", "NaN;", "%%", "\x00\x01",
                      "][", "..", "?!", "zz zz zz")

    def invocations(self, path, tmp_path):
        out = str(tmp_path / "fuzz.out")
        return [
            ["ctc", "loss", "--posteriors", path, "--vocab", path,
             "--labels", "a"],
            ["featurize", "--input", path, "--output", out],
            ["eval", "ppl", "--lm", path, "--text", path],
            ["analyze", "cca", "--x", path, "--y", path],
            ["ground", "train", "--data", path, "--out", out],
            ["ground", "eval", "--model", path, "--data", path],
        ]

    def test_fifty_malformed_files_fail_cleanly(self, tmp_path, capsys):
        rng = np.random.default_rng(402)
        for i in range(50):
            path = tmp_path / f"fuzz{i}"
            if i % 2 == 0:
                path.write_bytes(rng.bytes(int(rng.integers(0, 2000))))
            else:
                toks = rng.choice(self.GARBAGE_TOKENS,
                                  size=int(rng.integers(1, 30)))
                path.write_text(" ".join(toks), encoding="utf-8")
            argv = self.invocations(str(path), tmp_path)[i % 6]
            code, _, err = run(argv, capsys)
            assert code in (1, 2, 3), f"file {i}: unexpected exit {code}"
            assert err, f"file {i}: no diagnostic on stderr"


class TestStructuredInputFuzz:
    """Well-formed scene files and checkpoints with wrong contents.

    Each seeded case applies one mutation to a valid file and runs the
    pipeline on it: every outcome must be a documented exit code, and
    none may reach the catch-all handler.
    """

    ODD_VALUES = (None, True, False, 0.5, 2.0, -1, "1", "", [], {}, [[1.0]],
                  [1, "a"], {"a": 1}, 10**12, 2**64, -10**12, 10**400)
    INT_FIELDS = ("target_class", "relation_id", "target_index")

    @pytest.fixture
    def base(self, tmp_path):
        scenes = generate_scenes(GenConfig(num_scenes=8, num_classes=4,
                                           points_per_object=4, seed=3))
        stats, points = tmp_path / "stats.jsonl", tmp_path / "points.jsonl"
        write_scenes(str(stats), scenes, points=False)
        write_scenes(str(points), scenes)
        lines = (stats.read_text(encoding="utf-8").splitlines()[:4]
                 + points.read_text(encoding="utf-8").splitlines()[4:])
        ckpt = tmp_path / "base.ckpt"
        save_checkpoint(str(ckpt), init_grounding_model(GroundingConfig(num_classes=4),
                                                        seed=0))
        return [json.loads(line) for line in lines], read_tensors(ckpt)

    def odd_int(self, rng, value):
        """The same integer in the wrong JSON type, or a huge or negative id."""
        return (value + 0.5, float(value), bool(value % 2), str(value), -1 - value,
                10**12, 2**63, 10**400)[rng.integers(8)]

    def mutate_scene(self, rng, record):
        kind = rng.integers(6)
        if kind == 0:  # a record field replaced or deleted
            key = str(rng.choice(sorted(record)))
            if rng.random() < 0.2:
                del record[key]
            elif key in self.INT_FIELDS:
                record[key] = self.odd_int(rng, record[key])
            else:
                record[key] = self.ODD_VALUES[rng.integers(len(self.ODD_VALUES))]
        elif kind == 1:  # an object's class id
            obj = record["objects"][rng.integers(len(record["objects"]))]
            obj["class_id"] = self.odd_int(rng, obj["class_id"])
        elif kind == 2:  # a mentioned class
            mentioned = record["mentioned_classes"]
            mentioned[rng.integers(len(mentioned))] = self.odd_int(rng, mentioned[0])
        elif kind == 3:  # an object field replaced or deleted
            obj = record["objects"][rng.integers(len(record["objects"]))]
            key = str(rng.choice(sorted(obj)))
            if rng.random() < 0.2:
                del obj[key]
            else:
                obj[key] = self.ODD_VALUES[rng.integers(len(self.ODD_VALUES))]
        elif kind == 4:  # one number inside an array
            target = record["audio"]
            obj = record["objects"][rng.integers(len(record["objects"]))]
            for key in ("stats", "points"):
                if key in obj and rng.random() < 0.5:
                    target = obj[key]
            if isinstance(target[0], list):
                target = target[rng.integers(len(target))]
            target[rng.integers(len(target))] = self.ODD_VALUES[
                rng.integers(len(self.ODD_VALUES))]
        else:  # an array that is one entry short or long
            obj = record["objects"][rng.integers(len(record["objects"]))]
            arrays = [record["audio"], obj["bbox"]["center"], obj["bbox"]["size"],
                      obj.get("stats", [0.0])]
            target = arrays[rng.integers(len(arrays))]
            if rng.random() < 0.5:
                target.pop()
            else:
                target.append(0.0)

    def mutate_checkpoint(self, rng, tensors):
        name = str(rng.choice(sorted(tensors)))
        value = tensors[name]
        kind = rng.integers(6)
        if kind == 0:  # wrong rank
            tensors[name] = np.full((2, 2), value.reshape(-1)[:1].sum() or 1.0)
        elif kind == 1:  # extra or missing leading entry
            flat = value.reshape(-1)
            tensors[name] = flat[1:] if flat.size and rng.random() < 0.5 else \
                np.append(flat, 1.0)
        elif kind == 2:  # wrong value
            tensors[name] = value + (0.5, -100.0, 1e12, -1.0)[rng.integers(4)]
        elif kind == 3:  # transposed or reshaped weights
            tensors[name] = value.T if value.ndim > 1 else value[None]
        elif kind == 4:  # renamed
            tensors[name + ("x", ".w9", "0")[rng.integers(3)]] = tensors.pop(name)
        else:
            del tensors[name]

    def test_two_hundred_wrong_files_fail_cleanly(self, base, tmp_path, capsys):
        records, tensors = base
        rng = np.random.default_rng(405)
        scene_path, ckpt = tmp_path / "case.jsonl", tmp_path / "case.ckpt"
        write_tensors(ckpt, tensors)
        clean_scenes = "\n".join(json.dumps(r) for r in records) + "\n"
        scene_path.write_text(clean_scenes, encoding="utf-8")
        for case in range(200):
            if case % 2 == 0:
                mutated = json.loads(json.dumps(records))
                line = int(rng.integers(len(mutated)))
                self.mutate_scene(rng, mutated[line])
                scene_path.write_text(
                    "\n".join(json.dumps(r) for r in mutated) + "\n", encoding="utf-8")
                write_tensors(ckpt, tensors)
                command = ("train", "eval", "train", "infer")[case // 2 % 4]
            else:
                forged = {k: v.copy() for k, v in tensors.items()}
                self.mutate_checkpoint(rng, forged)
                write_tensors(ckpt, forged)
                scene_path.write_text(clean_scenes, encoding="utf-8")
                command = ("eval", "infer")[case // 2 % 2]
            if command == "train":
                argv = ["ground", "train", "--data", str(scene_path), "--epochs", "1",
                        "--batch", "4", "--quiet", "--out", str(tmp_path / "out.ckpt")]
                if rng.random() < 0.3:
                    argv += ["--classes", "4"]
            elif command == "eval":
                argv = ["ground", "eval", "--model", str(ckpt), "--data", str(scene_path)]
            else:
                argv = ["ground", "infer", "--model", str(ckpt), "--scene",
                        str(scene_path), "--index", str(rng.integers(len(records)))]
            code, _, err = run(argv, capsys)
            assert code in (0, 1, 2, 3), f"case {case}: exit {code}"
            assert "internal error" not in err, f"case {case} ({command}): {err}"


def leaf_parsers(parser, words=()):
    """(command words, parser) of every runnable subcommand under `parser`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, words + (name,))
    if parser.get_default("func") is not None:
        yield " ".join(words), parser


class TestFlagSurface:
    """Every flag a subcommand accepts is one its handler reads."""

    @staticmethod
    def flags(parser):
        return {action.dest: action.option_strings[0] for action in parser._actions
                if action.option_strings and not isinstance(action, argparse._HelpAction)}

    def test_seed_quiet_and_json_placement(self):
        dests = {words: set(self.flags(parser))
                 for words, parser in leaf_parsers(cli.build_parser())}
        assert len(dests) == 13
        assert {w for w, d in dests.items() if "seed" in d} == {
            "featurize", "analyze mi", "ground gen", "ground train"}
        assert {w for w, d in dests.items() if "quiet" in d} == {"ground train", "ground eval"}
        assert all("json" in d for d in dests.values())

    def test_every_flag_is_read(self):
        # a read is `args.<dest>` in the handler or in a cli.py function it passes args to
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def reads(name):
            nodes = list(ast.walk(funcs[name]))
            found = {node.attr for node in nodes if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id == "args"}
            for node in nodes:
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in funcs
                        and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                    found |= reads(node.func.id)
            return found

        unread = [f"{words} {flag}"
                  for words, parser in leaf_parsers(cli.build_parser())
                  for dest, flag in self.flags(parser).items()
                  if dest not in reads(parser.get_default("func").__name__)]
        assert unread == []

    def test_handlers_leave_the_exit_code_to_main(self):
        # a handler returns nothing; cli.main alone turns return or raise into 0/1/2/3
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        handlers = {node.name: node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")}
        assert set(handlers) == {parser.get_default("func").__name__
                                 for _, parser in leaf_parsers(cli.build_parser())}
        valued = [f"{name}:{node.lineno}" for name, handler in handlers.items()
                  for node in ast.walk(handler)
                  if isinstance(node, ast.Return) and node.value is not None]
        assert valued == []


class TestFlagSweep:
    """Every int and float option at extreme values, from a valid call of its command.

    Each baseline is a valid call that names some numeric options; the
    sweep swaps in each extreme value for each of them and runs the call
    in process.  Every outcome must be a documented exit code with no
    internal error and no RuntimeWarning, and an exit 0 must report
    finite numbers.  No option takes a non-finite or negative value, so
    those are usage errors (exit 1).
    """

    FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e308")
    INTS = ("-1", "0", str(10**12))
    REFUSED = {"nan", "inf", "-inf", "-1"}
    # the work grows linearly with these counts, so 10^12 would run for hours
    NOT_HUGE = {"--tm-count", "--fm-count", "--train-scenes", "--dev-scenes", "--epochs"}

    @pytest.fixture
    def baselines(self, tmp_path):
        rng = np.random.default_rng(24)
        wav = tmp_path / "w.wav"
        write_wav(str(wav), Waveform(rng.uniform(-0.5, 0.5, 1600), 16000))
        feats = write_feats(tmp_path / "x.feats", rng.normal(size=(12, 3)))
        other = write_feats(tmp_path / "y.feats", rng.normal(size=(12, 2)))
        labels = write_text(tmp_path / "labels.txt", "x\ny\n" * 6)
        post = write_post(tmp_path / "p.post", [[0.4, 0.3, 0.1, 0.2], [0.1, 0.7, 0.1, 0.1],
                                                [0.6, 0.1, 0.2, 0.1], [0.1, 0.1, 0.1, 0.7]])
        vocab = write_vocab(tmp_path / "p.vocab", ["a", "b", "c"])
        lm = write_text(tmp_path / "lm.counts",
                        "a\t2\nb\t1\nc\t1\n</s>\t2\n<s> a\t2\na b\t1\nb </s>\t1\n")
        text = write_text(tmp_path / "text.txt", "a b\na\n")
        scenes = tmp_path / "s.jsonl"
        write_scenes(str(scenes), generate_scenes(GenConfig(num_scenes=8, num_classes=4,
                                                            points_per_object=4, seed=3)),
                     points=False)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), init_grounding_model(GroundingConfig(num_classes=4),
                                                        seed=0))
        decode = ["ctc", "decode", "--posteriors", post, "--vocab", vocab, "--beam", "4",
                  "--lm", lm, "--lm-scale", "0.5", "--alpha", "1.0"]
        return [[str(a) for a in argv] + ["--json"] for argv in (
            ["featurize", "--input", wav, "--output", tmp_path / "out.feats", "--filters",
             "26", "--cepstra", "13", "--augment", "--tm", "2", "--fm", "2", "--tm-count", "1",
             "--fm-count", "1", "--seed", "0"],
            decode + ["--mode", "time-sync", "--prior-from", post, "--prior-scale", "0.5"],
            decode + ["--mode", "label-sync"],
            ["eval", "ppl", "--lm", lm, "--text", text, "--alpha", "1.0"],
            ["analyze", "cca", "--x", feats, "--y", other, "--reg", "1e-6"],
            ["analyze", "mi", "--features", feats, "--labels", labels, "--clusters", "2",
             "--seed", "0"],
            ["analyze", "ssl-losses", "--features", feats, "--temperature", "0.1"],
            ["ground", "gen", "--out", tmp_path / "gen", "--train-scenes", "4",
             "--dev-scenes", "2", "--classes", "4", "--embed-seed", "7", "--seed", "0"],
            ["ground", "train", "--data", scenes, "--out", tmp_path / "out.ckpt", "--classes",
             "4", "--embed-seed", "7", "--epochs", "1", "--batch", "4", "--lr", "3e-3",
             "--seed", "0", "--quiet"],
            ["ground", "infer", "--model", ckpt, "--scene", scenes, "--index", "0"])]

    @staticmethod
    def outcome(argv, capsys):
        """The exit code of `argv` and what is wrong with its run, or None."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv, capsys)
        if code not in (0, 1, 2, 3) or "internal error" in err:
            return code, err.strip()
        noisy = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if noisy:
            return code, f"warned {noisy}"
        if code == 0:
            def finite(number):
                if not math.isfinite(float(number)):
                    raise ValueError(number)
            try:
                json.loads(out.splitlines()[-1], parse_constant=finite, parse_float=finite)
            except (IndexError, ValueError) as exc:
                return code, f"no finite --json line: {exc!r}"
        return code, None

    def test_every_numeric_option_fails_cleanly(self, baselines, capsys):
        numeric = {(words, action.option_strings[0]): action.type
                   for words, parser in leaf_parsers(cli.build_parser())
                   for action in parser._actions if action.type in (int, float)}
        placed, failures = set(), []
        for argv in baselines:
            assert self.outcome(argv, capsys) == (0, None), argv
            words = " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))
            for i, flag in enumerate(argv):
                kind = numeric.get((words, flag))
                if kind is None:
                    continue
                placed.add((words, flag))
                values = self.FLOATS if kind is float else self.INTS
                for value in values:
                    if value == str(10**12) and flag in self.NOT_HUGE:
                        continue
                    code, problem = self.outcome(argv[:i + 1] + [value] + argv[i + 2:],
                                                 capsys)
                    if value in self.REFUSED and code != 1:
                        problem = problem or "not refused as usage"
                    if problem:
                        failures.append(f"{words} {flag} {value}: exit {code}, {problem}")
        assert sorted(set(numeric) - placed) == [], "numeric options with no baseline"
        assert failures == []


class TestByteLevelFuzz:
    """Valid input files with cut, overwritten or appended bytes.

    Each seeded case truncates a file at a random offset, overwrites 1-4
    bytes or appends 1-5, then runs the command that reads it: every
    outcome must be a documented exit code, and none may reach the
    catch-all handler.
    """

    CASES_PER_KIND = 60

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(406)
        wav = tmp_path / "base.wav"
        write_wav(str(wav), Waveform(rng.uniform(-0.5, 0.5, 1600), 16000))
        feats = rng.normal(size=(6, 3))
        text_feats = write_feats(tmp_path / "base.feats", feats)
        binary_feats = tmp_path / "base.bin"
        write_feature_binary(str(binary_feats), FeatureMatrix(feats))
        post = write_post(tmp_path / "base.post", [[0.1, 0.8, 0.1], [0.7, 0.2, 0.1],
                                                   [0.1, 0.1, 0.8]])
        vocab = write_vocab(tmp_path / "base.vocab", ["a", "b"])
        counts = write_text(tmp_path / "base.counts",
                            "a\t2\nb\t1\n</s>\t2\n<s> a\t2\na b\t1\nb </s>\t1\na </s>\t1\n")
        text = write_text(tmp_path / "base.txt", "a b\na\n")
        scenes = tmp_path / "base.jsonl"
        write_scenes(str(scenes), generate_scenes(GenConfig(num_scenes=3, num_classes=4)),
                     points=False)
        ckpt = tmp_path / "base.ckpt"
        save_checkpoint(str(ckpt), init_grounding_model(GroundingConfig(num_classes=4),
                                                        seed=0))
        out = str(tmp_path / "out")
        # kind -> (valid file, argv reading the case file at "{}")
        return {
            "wav": (wav, ["featurize", "--input", "{}", "--output", out]),
            "text features": (text_feats, ["analyze", "cca", "--x", "{}", "--y", "{}"]),
            "binary features": (binary_feats, ["analyze", "ssl-losses", "--features", "{}"]),
            "posteriorgram": (post, ["ctc", "decode", "--mode", "time-sync", "--posteriors",
                                     "{}", "--vocab", vocab, "--prior-from", "{}"]),
            "vocabulary": (vocab, ["ctc", "decode", "--mode", "label-sync", "--posteriors",
                                   post, "--vocab", "{}", "--lm", counts,
                                   "--lm-scale", "0.3"]),
            "count file": (counts, ["eval", "ppl", "--lm", "{}", "--text", text]),
            "checkpoint": (ckpt, ["ground", "eval", "--model", "{}", "--data", str(scenes)]),
            "scene file": (scenes, ["ground", "eval", "--model", str(ckpt), "--data", "{}"]),
        }

    @staticmethod
    def mutate(rng, blob):
        kind = rng.integers(3)
        if kind == 0:
            return blob[:rng.integers(len(blob))]
        if kind == 1:
            out = bytearray(blob)
            pos = int(rng.integers(len(out)))
            span = len(out[pos:pos + int(rng.integers(1, 5))])
            out[pos:pos + span] = rng.bytes(span)
            return bytes(out)
        return blob + rng.bytes(int(rng.integers(1, 6)))

    def test_mutated_files_fail_cleanly(self, files, tmp_path, capsys):
        rng = np.random.default_rng(407)
        for kind, (base, argv) in files.items():
            blob = Path(base).read_bytes()
            case_file = tmp_path / f"case{Path(base).suffix}"
            for case in range(self.CASES_PER_KIND):
                case_file.write_bytes(self.mutate(rng, blob))
                code, _, err = run([a.format(case_file) for a in argv], capsys)
                assert code in (0, 1, 2, 3), f"{kind} case {case}: exit {code}"
                assert "internal error" not in err, f"{kind} case {case}: {err}"
