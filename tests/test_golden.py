"""Golden sha256 of every command's stdout and output files.

Each command runs in process through main(), in a temporary directory
and on relative paths, on inputs built here from seeds.  Its stdout
(with --json, so every number prints at full precision) and every file
it writes are hashed and compared with `GOLDEN`.  The tolerance oracles
elsewhere let a last-bit change through; this table does not.

A change that moves bits on purpose updates the hashes it moves and
says which and why.  A move nobody intended is a bug.  Another numpy or
BLAS build may round some products differently, so the table names the
versions it was measured with.
"""

import hashlib

import numpy as np

from speechground.dsp import Waveform, write_wav
from tests.test_cli import run, write_feats, write_post, write_text, write_vocab

# sha256 by case, and by "case: file" for each file the case writes;
# measured on x86-64 with numpy 2.4.6 and scipy-openblas (OpenBLAS 0.3.31)
GOLDEN = {
    "featurize text": "dfd3e127d10c7e179989f18f137b671f3092fbffd3c761ca75a197994627c18b",
    "featurize text: feats.txt":
        "82db2645058ed73a57c8d5f74bd6d765469b3cd95db6191a49c09b4da6e5fed7",
    "featurize binary augment":
        "9d93fa9fed8b458a78f817e328d635dd405511e4e6c78a678b48b8e01b6ce51a",
    "featurize binary augment: feats.bin":
        "97ef5676a242a2322818f3c56b06e6456dcb4b0cfc545ebd9e61f06dddb83515",
    "ctc loss": "057b7c3bfce055deb977bd74e9422c8684334779a6f1615495cb0df972093547",
    "ctc prefix": "30fe3a4d3e719ffb53cd58b75e729b5574d52a960cf264ddddcdd7ce3e8e413f",
    "ctc decode greedy": "b45b47841a959962b8dfdef00169a0c59332daeb45ff9515c175b25974b9071d",
    "ctc decode time-sync": "8f050b89c139ad42abaef12e9cfd4cad669638ba3d3dc58fee397d3d00dd5660",
    "ctc decode label-sync":
        "a8d4b9fcc6b5fa9d953da6fe93eb370e4333d3f157be406cc50661297710243d",
    "eval wer": "aea9558af19ffcc9caabf4c631690d49c1bc9cb7b953b0f168d3e33e58bba244",
    "eval ppl": "77c37671f90a829b2c2c9273fe5b89ac9ee734d8f866f242f73843081e91879e",
    "analyze cca": "08dda0d5be8b913dfccfa27095740cee3104b4bec0b318e5b2bdc9b75a48f210",
    "analyze mi": "b61dc4acbb3316249f8cf158aba57213beecc7be71a20d467e9606b96f8fa3d5",
    "analyze ssl-losses": "9f5a7add95f98aac4ced8cfe45881fdfcc1db858d1028e48c024f517ed869484",
    "ground gen": "816d3d3feb9327a4bab70addffb46378412fabda83cea80943f14d865fa6d9a7",
    "ground gen: scenes/train.jsonl":
        "dd9f37f0d2257839cc4a53ae2d9931e29ebcc762aea5236e7d7f1422eb955077",
    "ground gen: scenes/dev.jsonl":
        "4f171524cfc1e1149a8cecc85dc492f2a5d876c0df74643a3ab07df3ee251277",
    "ground train": "2cb563feb75ae5b689cbd7991c6008185472a46eff9be05d0f0c662bec1803b7",
    "ground train: model.ckpt":
        "e019ea6ccbf898c033daa27e5bdaa1d64697b48bf1f822def691938c34c478bd",
    "ground eval": "ca50eaadd33ea8766ac906e79cdd205676d1253ce977a98f4d1a104238a0e644",
    "ground infer": "732be3168f32257fbf8b23abe0fdc2ec7d4bb85cb4d8c353efdccee0ef4ffc68",
}


def probability_rows(rng, frames, symbols, sharpness):
    logits = sharpness * rng.standard_normal((frames, symbols))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def build_inputs(root):
    """Write every input file under the directory `root`."""
    rng = np.random.default_rng(1500)
    t = np.arange(24000) / 16000
    samples = 0.3 * np.sin(2 * np.pi * 440 * t) + 0.1 * rng.standard_normal(t.size)
    write_wav(str(root / "in.wav"), Waveform(samples, 16000))
    write_vocab(root / "vocab.txt", ["a", "b", "c"])
    write_post(root / "post.txt", probability_rows(rng, 24, 4, 2.0))
    write_post(root / "short.txt", probability_rows(rng, 10, 4, 3.0))
    for name in ("p1.txt", "p2.txt"):
        write_post(root / f"priors/{name}", probability_rows(rng, 12, 4, 1.0))
    words = ["a", "b", "c"]
    sentences = [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                 for _ in range(12)]
    write_text(root / "text.txt", "".join(s + "\n" for s in sentences))
    counts = {}
    for s in sentences[:8]:
        tokens = ["<s>", *s.split(), "</s>"]
        for gram in (*tokens[1:], *(f"{x} {y}" for x, y in zip(tokens, tokens[1:]))):
            counts[gram] = counts.get(gram, 0) + 1
    write_text(root / "lm.txt", "".join(f"{g}\t{c}\n" for g, c in sorted(counts.items())))
    hyps = [" ".join(rng.choice(words, size=int(rng.integers(0, 6)))) for _ in sentences]
    write_text(root / "hyp.txt", "".join(h + "\n" for h in hyps))
    write_text(root / "labels.txt", "".join(f"{rng.choice(words)}\n" for _ in range(148)))
    write_feats(root / "usage.txt", probability_rows(rng, 2, 5, 1.0))


CTC = ["--posteriors", "post.txt", "--vocab", "vocab.txt"]
LM = ["--lm", "lm.txt", "--lm-scale", "0.5"]
# (case, argv, files it writes); later cases read earlier cases' outputs
COMMANDS = [
    ("featurize text", ["featurize", "--input", "in.wav", "--output", "feats.txt"],
     ["feats.txt"]),
    ("featurize binary augment",
     ["featurize", "--input", "in.wav", "--output", "feats.bin", "--binary", "--augment",
      "--tm", "6", "--fm", "3", "--tm-count", "2", "--seed", "4"], ["feats.bin"]),
    ("ctc loss", ["ctc", "loss", *CTC, "--labels", "a b c a"], []),
    ("ctc prefix", ["ctc", "prefix", *CTC, "--labels", "b a"], []),
    ("ctc decode greedy", ["ctc", "decode", *CTC], []),
    ("ctc decode time-sync", ["ctc", "decode", *CTC, "--mode", "time-sync", "--beam", "4",
                              *LM, "--prior-from", "priors", "--prior-scale", "0.3"], []),
    ("ctc decode label-sync", ["ctc", "decode", "--posteriors", "short.txt",
                               "--vocab", "vocab.txt", "--mode", "label-sync",
                               "--beam", "4", *LM, "--alpha", "0.5"], []),
    ("eval wer", ["eval", "wer", "--ref", "text.txt", "--hyp", "hyp.txt"], []),
    ("eval ppl", ["eval", "ppl", "--lm", "lm.txt", "--text", "text.txt"], []),
    ("analyze cca", ["analyze", "cca", "--x", "feats.txt", "--y", "feats.bin"], []),
    ("analyze mi", ["analyze", "mi", "--features", "feats.txt", "--labels", "labels.txt",
                    "--clusters", "4", "--seed", "2"], []),
    ("analyze ssl-losses", ["analyze", "ssl-losses", "--features", "feats.txt",
                            "--usage", "usage.txt"], []),
    ("ground gen", ["ground", "gen", "--out", "scenes", "--train-scenes", "60",
                    "--dev-scenes", "20", "--classes", "4", "--seed", "5"],
     ["scenes/train.jsonl", "scenes/dev.jsonl"]),
    ("ground train", ["ground", "train", "--data", "scenes/train.jsonl", "--out",
                      "model.ckpt", "--epochs", "3", "--batch", "16", "--seed", "2"],
     ["model.ckpt"]),
    ("ground eval", ["ground", "eval", "--model", "model.ckpt", "--data",
                     "scenes/dev.jsonl"], []),
    ("ground infer", ["ground", "infer", "--model", "model.ckpt", "--scene",
                      "scenes/dev.jsonl", "--index", "3"], []),
]


def test_every_output_matches_its_golden_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "priors").mkdir()
    build_inputs(tmp_path)
    digests = {}
    for case, argv, outputs in COMMANDS:
        code, out, err = run([*argv, "--json"], capsys)
        assert code == 0, f"{case}: {err}"
        digests[case] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        for path in outputs:
            digests[f"{case}: {path}"] = hashlib.sha256(
                (tmp_path / path).read_bytes()).hexdigest()
    assert digests == GOLDEN
