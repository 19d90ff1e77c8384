"""End-to-end command-line tests driven through main()."""

import json
import math
import struct
import wave

import numpy as np
import pytest

from speechground import cli
from speechground.cli import main
from speechground.dsp import Waveform, write_wav
from speechground.grounding import (GenConfig, GroundingConfig, generate_scenes,
                                    init_grounding_model, save_checkpoint,
                                    write_scenes)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestCtcCommands:
    def test_loss_anchor(self, anchor, capsys):
        post, vocab = anchor
        code, out, _ = run(["ctc", "loss", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "LOSS=0.287682"

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

    def test_zero_beam_rejected(self, peaky, capsys):
        post, vocab = peaky
        code, _, err = run(["ctc", "decode", "--posteriors", post,
                            "--vocab", vocab, "--mode", "time-sync",
                            "--beam", "0"], capsys)
        assert code == 1
        assert "error:" in err

    def test_vocab_size_mismatch(self, tmp_path, anchor, capsys):
        post, _ = anchor
        vocab = write_vocab(tmp_path / "wide.vocab", ["a", "b", "c"])
        code, _, err = run(["ctc", "loss", "--posteriors", post,
                            "--vocab", vocab, "--labels", "a"], capsys)
        assert code == 2
        assert "symbols" in err

    def test_unknown_mode_rejected(self, anchor, capsys):
        post, vocab = anchor
        code, _, _ = run(["ctc", "decode", "--posteriors", post,
                          "--vocab", vocab, "--mode", "psychic"], capsys)
        assert code == 1


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
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=0)
        # the config type refuses this width, so forge it past the check
        object.__setattr__(model.config, "head_hidden", (-3,))
        ckpt = str(tmp_path / "bad.ckpt")
        save_checkpoint(ckpt, model)
        data = str(tmp_path / "dev.jsonl")
        write_scenes(data, generate_scenes(GenConfig(num_scenes=2, num_classes=4)))
        code, out, err = run(["ground", "eval", "--model", ckpt, "--data", data],
                             capsys)
        assert code == 2
        assert "widths" in err
        assert "internal error" not in err and out == ""

    def test_train_rejects_missing_data(self, tmp_path, capsys):
        code, _, err = run(["ground", "train", "--data",
                            str(tmp_path / "absent.jsonl"), "--out",
                            str(tmp_path / "m.ckpt")], capsys)
        assert code == 2
        assert err


class TestGroundInputValidation:
    """Non-finite or out-of-range grounding inputs exit 2, never 0 or 3."""

    @staticmethod
    def dataset(tmp_path, edit=None):
        scenes = generate_scenes(GenConfig(num_scenes=2, num_classes=4))
        path = tmp_path / "dev.jsonl"
        write_scenes(str(path), scenes, include_points=False, embed_seed=7)
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


class TestCliBasics:
    def test_unknown_flag(self, capsys):
        code, _, err = run(["eval", "wer", "--bogus", "x"], capsys)
        assert code == 1
        assert "error" in err

    def test_missing_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_version_flag(self, capsys):
        from speechground import __version__
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert out.strip() == __version__

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_internal_error_names_command_and_type(self, monkeypatch, capsys):
        def broken(args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "_cmd_ground_eval", broken)
        code, out, err = run(["ground", "eval", "--model", "m", "--data", "d"],
                             capsys)
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error in ground eval: ValueError: boom"


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
