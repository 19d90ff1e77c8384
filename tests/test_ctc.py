"""Alignment-free sequence probabilities against brute-force enumeration."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from speechground import ctc
from speechground.ctc import (BLANK, BLANK_TOKEN, Posteriorgram, Vocabulary, _lattice,
                              _target_lattice, bruteforce_distribution, collapse,
                              ctc_backward, ctc_bruteforce, ctc_forward, ctc_loss,
                              ctc_prefix_logprob, format_label_sequence,
                              parse_label_string, read_posteriorgram,
                              read_vocab, write_posteriorgram, write_vocab)
from speechground.errors import DataError, UsageError
from tests import ctc_reference as reference

# sha256 of the forward and backward tables and totals over
# `TestLatticeMatchesReference.seeded_cases`, measured on x86-64 with numpy 2.4.6
TABLES_SHA256 = "0d98e979db2e02453b605d62361d4ff036439ea78e9b9cdd8a7ce7a81e38961f"


def random_posteriorgram(rng, t_total, k):
    """Dirichlet-ish rows: positive, normalized, occasionally peaked."""
    raw = rng.gamma(shape=rng.uniform(0.3, 3.0), scale=1.0, size=(t_total, k))
    raw = np.maximum(raw, 1e-12)
    probs = raw / raw.sum(axis=1, keepdims=True)
    return Posteriorgram(np.log(probs))


def all_sequences(num_labels, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, num_labels + 1), repeat=length)


class TestCollapse:
    def test_hand_cases(self):
        assert collapse(()) == ()
        assert collapse((0, 0, 0)) == ()
        assert collapse((1, 1, 2)) == (1, 2)
        assert collapse((1, 0, 1)) == (1, 1)
        assert collapse((1, 1, 0, 0, 1)) == (1, 1)
        assert collapse((0, 2, 2, 0, 2)) == (2, 2)

    def test_output_has_no_blanks_and_never_grows(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            path = tuple(rng.integers(0, 4, size=rng.integers(0, 10)))
            out = collapse(path)
            assert 0 not in out
            assert len(out) <= len(path)

    def test_identity_on_repeat_free_label_sequences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            seq = []
            for sym in rng.integers(1, 4, size=rng.integers(0, 8)):
                if not seq or seq[-1] != sym:
                    seq.append(int(sym))
            assert collapse(tuple(seq)) == tuple(seq)


class TestForward:
    def test_uniform_two_frame_anchor(self):
        # paths aa, a-, -a out of four -> 3/4
        p = Posteriorgram(np.log(np.full((2, 2), 0.5)))
        _, logp = ctc_forward(p, (1,))
        assert abs(logp - math.log(0.75)) < 1e-12
        assert abs(ctc_loss(p, (1,)) - 0.287682) < 5e-7

    def test_certain_target_has_a_positive_zero_loss(self):
        p = Posteriorgram(np.array([[-np.inf, 0.0], [0.0, -np.inf]]))
        assert ctc_forward(p, (1,))[1] == 0.0
        assert math.copysign(1.0, ctc_loss(p, (1,))) == 1.0
        assert math.copysign(1.0, ctc_loss(Posteriorgram(np.zeros((0, 2))), ())) == 1.0

    def test_empty_target_mass(self):
        p = Posteriorgram(np.log(np.full((3, 2), 0.5)))
        _, logp = ctc_forward(p, ())
        assert abs(logp - math.log(0.125)) < 1e-12

    def test_zero_frames(self):
        p = Posteriorgram(np.zeros((0, 3)))
        assert ctc_forward(p, ())[1] == 0.0
        assert ctc_forward(p, (1,))[1] == -np.inf

    def test_infeasible_targets(self):
        p = Posteriorgram(np.log(np.full((2, 3), 1 / 3)))
        assert ctc_forward(p, (1, 1))[1] == -np.inf  # repeat needs a blank
        assert ctc_forward(p, (1, 2, 1))[1] == -np.inf  # longer than T'

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(100)
        for _ in range(150):
            t_total = int(rng.integers(1, 7))
            k = int(rng.integers(2, 4))
            p = random_posteriorgram(rng, t_total, k)
            length = int(rng.integers(0, 5))
            target = tuple(rng.integers(1, k, size=length))
            _, logp = ctc_forward(p, target)
            brute = ctc_bruteforce(p, target)
            if brute == 0.0:
                assert logp == -np.inf
            else:
                assert abs(logp - math.log(brute)) < 1e-10

    def test_forward_equals_backward(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            t_total = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t_total, k)
            target = tuple(rng.integers(1, k, size=rng.integers(0, 5)))
            _, f = ctc_forward(p, target)
            _, b = ctc_backward(p, target)
            if f == -np.inf or b == -np.inf:
                assert f == b
            else:
                assert abs(f - b) < 1e-8

    def test_backward_tables_give_mass_at_every_frame(self):
        # forward x backward over all lattice states at frame t, with the
        # frame's shared emission counted once, is the whole target mass
        rng = np.random.default_rng(103)
        for _ in range(150):
            t_total = int(rng.integers(1, 7))
            k = int(rng.integers(2, 4))  # k = 2 forces repeated labels
            probs = np.exp(random_posteriorgram(rng, t_total, k).log_probs)
            zero = rng.random(probs.shape) < 0.3
            zero[np.arange(t_total), rng.integers(0, k, size=t_total)] = False
            probs[zero] = 0.0
            with np.errstate(divide="ignore"):
                p = Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))
            target = tuple(int(v) for v in rng.integers(1, k, size=rng.integers(0, 5)))
            n, lp = len(target), p.log_probs
            fwd, _ = ctc_forward(p, target)
            bwd, _ = ctc_backward(p, target)
            brute = ctc_bruteforce(p, target)
            expected = math.log(brute) if brute > 0 else -np.inf
            for t in range(t_total):
                emit = np.concatenate([np.full(n + 1, lp[t, 0]), lp[t, list(target)]])
                with np.errstate(invalid="ignore"):
                    terms = np.concatenate([
                        fwd.blank[t] + bwd.blank[t, 1:],
                        fwd.label[t, 1:] + bwd.label[t, 1:n + 1],
                    ]) - emit
                # a zero-probability emission leaves its states empty
                mass = np.logaddexp.reduce(np.where(emit > -np.inf, terms, -np.inf))
                if expected == -np.inf:
                    assert mass == -np.inf
                else:
                    assert abs(mass - expected) < 1e-9

    def test_blank_column_is_cumulative_product(self):
        rng = np.random.default_rng(102)
        p = random_posteriorgram(rng, 5, 3)
        table, _ = ctc_forward(p, (1, 2))
        np.testing.assert_allclose(table.blank[:, 0],
                                   np.cumsum(p.log_probs[:, 0]), atol=1e-12)

    def test_rejects_bad_targets(self):
        p = Posteriorgram(np.log(np.full((2, 3), 1 / 3)))
        with pytest.raises(UsageError):
            ctc_forward(p, (0,))
        with pytest.raises(UsageError):
            ctc_forward(p, (3,))


class TestLatticeMatchesReference:
    """The one lattice step against the scalar (t, pos) loop it replaced, bit for bit."""

    @staticmethod
    def seeded_cases():
        """1500 seeded (case, posteriorgram, target) inputs, a third of them holed."""
        rng = np.random.default_rng(104)
        for case in range(1500):
            t_total = int(rng.integers(0, 12))
            k = int(rng.integers(2, 6))
            probs = rng.gamma(rng.uniform(0.3, 3.0), 1.0, size=(t_total, k)) + 1e-12
            if case % 3 == 0:  # -inf entries, each row keeping one live symbol
                zero = rng.random(probs.shape) < 0.3
                zero[np.arange(t_total), rng.integers(0, k, size=t_total)] = False
                probs[zero] = 0.0
            with np.errstate(divide="ignore"):
                p = Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))
            target = [int(v) for v in rng.integers(1, k, size=rng.integers(0, 7))]
            if len(target) > 1 and case % 4 == 0:  # force a repeat
                target[1] = target[0]
            yield case, p, target

    def test_tables_keep_their_bytes(self):
        # `np.array_equal` holds 0.0 == -0.0; the bytes of every forward
        # and backward table and total must not move at all
        digest = hashlib.sha256()
        for _, p, target in self.seeded_cases():
            for table, total in (ctc_forward(p, target), ctc_backward(p, target)):
                digest.update(table.blank.tobytes() + table.label.tobytes())
                digest.update(float(total).hex().encode())
        assert digest.hexdigest() == TABLES_SHA256

    def test_tables_totals_and_prefix_mass(self):
        for case, p, target in self.seeded_cases():
            fwd, total = ctc_forward(p, target)
            want_blank, want_label, want_total = reference.ctc_forward(p, target)
            assert np.array_equal(fwd.blank, want_blank), case
            assert np.array_equal(fwd.label, want_label), case
            assert total == want_total, case
            bwd, total = ctc_backward(p, target)
            want_blank, want_label, want_total = reference.ctc_backward(p, target)
            assert np.array_equal(bwd.blank, want_blank), case
            assert np.array_equal(bwd.label, want_label), case
            assert total == want_total, case
            assert (ctc_prefix_logprob(p, target)
                    == reference.ctc_prefix_logprob(p, target)), case


def holed_posteriorgram(rng, t_total, k):
    """Normalized rows, about 30% of entries -inf, each row keeping one live symbol."""
    probs = rng.gamma(rng.uniform(0.3, 3.0), 1.0, size=(t_total, k)) + 1e-12
    zero = rng.random(probs.shape) < 0.3
    zero[np.arange(t_total), rng.integers(0, k, size=t_total)] = False
    probs[zero] = 0.0
    with np.errstate(divide="ignore"):
        return Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))


class TestBlockLatticeMatchesTheChain:
    """A beam depth's block path against each child's own target chain, bit for bit.

    A depth grows every (parent, label) child of a beam of given
    columns in one `_lattice` call, which forms the entry terms and the
    prefix mass as blocks from the parents' first live row.  Each child
    must get the tables and mass that `_target_lattice` gives its whole
    sequence, frame by frame from row 0, and the scalar reference's
    prefix mass.
    """

    @staticmethod
    def grow(lp, beam):
        """Children of `beam` and their (T+1,) blank and label columns and prefix masses."""
        columns = [_target_lattice(lp, seq) for seq in beam]
        blank = np.stack([q_blank[:, -1] for q_blank, _, _, _ in columns], axis=1)
        label = np.stack([q_label[:, -1] for _, q_label, _, _ in columns], axis=1)
        labels = np.arange(1, lp.shape[1])
        parents = np.repeat(np.arange(len(beam)), len(labels))
        grown = np.tile(labels, len(beam))
        last = np.array([seq[-1] if seq else BLANK for seq in beam])
        q_blank, q_label, mass = _lattice(lp, blank, label, grown, parents,
                                          grown != last[parents])
        children = [beam[j] + (int(v),) for j, v in zip(parents, grown)]
        return children, q_blank, q_label, mass

    def check(self, p, beam):
        children, q_blank, q_label, mass = self.grow(p.log_probs, beam)
        for j, child in enumerate(children):
            want_blank, want_label, want_mass, _ = _target_lattice(p.log_probs, child)
            assert np.array_equal(q_blank[:, j], want_blank[:, -1]), (beam, child)
            assert np.array_equal(q_label[:, j], want_label[:, -1]), (beam, child)
            assert mass[j] == want_mass[-1] == reference.ctc_prefix_logprob(p, child), child
        return mass

    def test_seeded_beams(self):
        rng = np.random.default_rng(106)
        live = 0
        for case in range(400):
            t_total = int(rng.integers(0, 13))
            k = int(rng.integers(2, 7))
            p = (holed_posteriorgram(rng, t_total, k) if case % 2
                 else random_posteriorgram(rng, t_total, k))
            # parents of different lengths; one longer than T is -inf in every row
            beam = {tuple(int(v) for v in rng.integers(1, k, size=rng.integers(0, 6)))
                    for _ in range(int(rng.integers(1, 5)))}
            if case % 5 == 0:
                beam.add((1,) * (t_total + 1))
            live += np.isfinite(self.check(p, sorted(beam))).sum()
        assert live > 1000  # most children have mass, so the lattice did run

    def test_root_alone(self):
        rng = np.random.default_rng(107)
        for t_total in range(13):
            for k in range(2, 7):
                mass = self.check(random_posteriorgram(rng, t_total, k), [()])
                assert np.isfinite(mass).all() == (t_total > 0)

    def test_only_dead_parents(self):
        rng = np.random.default_rng(108)
        p = random_posteriorgram(rng, 4, 3)
        # too long, and a repeat with no frame left for its blank
        assert (self.check(p, [(1,) * 5, (2, 2, 1, 1)]) == -np.inf).all()

    def test_starts_at_the_parents_first_live_row(self):
        # depth-2 parents are -inf up to row 2, so frames 0 and 1 are skipped;
        # a loop started one row late would lose the children's row-3 entries
        p = Posteriorgram(np.log(np.full((5, 3), 1 / 3)))
        children, q_blank, q_label, mass = self.grow(p.log_probs, [(1, 2), (2, 1)])
        assert np.isfinite(q_label[3]).any()
        assert (q_label[:3] == -np.inf).all() and (q_blank[:4] == -np.inf).all()
        self.check(p, [(1, 2), (2, 1)])


class TestBlockedBruteforceMatchesReference:
    """The blocked path enumeration against the per-path loop it replaced.

    The dicts must be equal, key order included, with no difference in
    any value, for every block size, whether the path count is a block
    less one, a block, a block plus one or several blocks.
    """

    def check(self, p):
        want = reference.bruteforce_distribution(p)
        got = bruteforce_distribution(p)
        assert got == want
        assert list(got) == list(want)
        return got

    def test_every_shape_at_the_default_block(self):
        rng = np.random.default_rng(109)
        zero_mass = 0
        for t_total in range(9):
            for k in range(1, 6):
                if k ** t_total > 5 ** 7:  # 4^8 is one block; 5^7 needs two
                    continue
                for p in (random_posteriorgram(rng, t_total, k),
                          holed_posteriorgram(rng, t_total, k)):
                    zero_mass += list(self.check(p).values()).count(0.0)
        assert zero_mass > 0  # a sequence with no mass is still listed

    def test_block_edges(self, monkeypatch):
        rng = np.random.default_rng(110)
        for case in range(60):
            t_total = int(rng.integers(0, 7))
            k = int(rng.integers(1, 5))
            p = (holed_posteriorgram(rng, t_total, k) if case % 2
                 else random_posteriorgram(rng, t_total, k))
            paths = k ** t_total
            for block in {max(paths // 3, 1), max(paths - 1, 1), paths, paths + 1}:
                monkeypatch.setattr(ctc, "_BRUTEFORCE_BLOCK", block)
                self.check(p)


class TestPartition:
    def test_collapse_outputs_form_a_distribution(self):
        rng = np.random.default_rng(200)
        for _ in range(40):
            t_total = int(rng.integers(1, 6))
            k = int(rng.integers(2, 4))
            p = random_posteriorgram(rng, t_total, k)
            total = sum(bruteforce_distribution(p).values())
            assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_frames_give_the_empty_sequence(self, k):
        # the one path of length 0 collapses to () with probability 1
        dist = bruteforce_distribution(Posteriorgram(np.zeros((0, k))))
        assert dist == {(): 1.0}
        assert type(dist[()]) is float

    def test_forward_sums_to_one_over_all_sequences(self):
        rng = np.random.default_rng(201)
        for _ in range(30):
            t_total = int(rng.integers(1, 6))
            k = int(rng.integers(2, 4))
            p = random_posteriorgram(rng, t_total, k)
            total = 0.0
            for seq in all_sequences(k - 1, t_total):
                _, logp = ctc_forward(p, seq)
                if logp > -np.inf:
                    total += math.exp(logp)
            assert abs(total - 1.0) < 1e-8


class TestPrefix:
    def test_uniform_anchor(self):
        p = Posteriorgram(np.log(np.full((2, 2), 0.5)))
        assert abs(ctc_prefix_logprob(p, (1,)) - math.log(0.75)) < 1e-12

    def test_empty_prefix_is_certain(self):
        p = Posteriorgram(np.log(np.full((4, 3), 1 / 3)))
        assert ctc_prefix_logprob(p, ()) == 0.0

    def test_longer_than_frames_impossible(self):
        p = Posteriorgram(np.log(np.full((2, 2), 0.5)))
        assert ctc_prefix_logprob(p, (1, 1, 1)) == -np.inf

    def test_matches_bruteforce_suffix_sum(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            t_total = int(rng.integers(1, 7))
            k = int(rng.integers(2, 4))
            p = random_posteriorgram(rng, t_total, k)
            dist = bruteforce_distribution(p)
            length = int(rng.integers(1, 4))
            prefix = tuple(rng.integers(1, k, size=length))
            mass = sum(prob for seq, prob in dist.items()
                       if seq[:length] == prefix)
            logp = ctc_prefix_logprob(p, prefix)
            if mass == 0.0:
                assert logp == -np.inf
            else:
                assert abs(logp - math.log(mass)) < 1e-10

    def test_monotone_in_prefix_extension(self):
        rng = np.random.default_rng(301)
        for _ in range(50):
            p = random_posteriorgram(rng, 6, 3)
            seq = tuple(rng.integers(1, 3, size=3))
            scores = [ctc_prefix_logprob(p, seq[:i]) for i in range(4)]
            for a, b in zip(scores, scores[1:]):
                assert b <= a + 1e-12

    def test_prefix_dominates_full_sequence(self):
        rng = np.random.default_rng(302)
        for _ in range(50):
            p = random_posteriorgram(rng, 5, 3)
            seq = tuple(rng.integers(1, 3, size=2))
            full = ctc_forward(p, seq)[1]
            pre = ctc_prefix_logprob(p, seq)
            assert pre >= full - 1e-12


class TestPosteriorgramType:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(DataError):
            Posteriorgram(np.log(np.array([[0.5, 0.4]])))

    def test_validation_escape_hatch(self):
        p = Posteriorgram(np.log(np.array([[0.5, 0.4]])), validate=False)
        assert p.num_frames == 1

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Posteriorgram(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("log_probs", [np.zeros(3), np.zeros((2, 0))],
                             ids=["1-D", "no-columns"])
    def test_rejects_wrong_shape(self, log_probs):
        with pytest.raises(DataError, match="2-D with at least one column"):
            Posteriorgram(log_probs)

    def test_bruteforce_refuses_beyond_its_path_cap(self):
        # 2^24 paths; the cap is checked before any path is enumerated
        p = Posteriorgram(np.full((24, 2), np.log(0.5)))
        with pytest.raises(UsageError, match=r"2\^24 paths exceeds the 10000000 cap"):
            bruteforce_distribution(p)

    def test_scaling_rows_shifts_forward_by_constant(self):
        # positive per-frame scaling must shift every sequence equally
        rng = np.random.default_rng(400)
        p = random_posteriorgram(rng, 4, 3)
        shift = rng.uniform(0.1, 2.0, size=(4, 1))
        scaled = Posteriorgram(p.log_probs + np.log(shift), validate=False)
        base = ctc_forward(p, (1, 2))[1]
        moved = ctc_forward(scaled, (1, 2))[1]
        assert abs((moved - base) - np.log(shift).sum()) < 1e-10


class TestVocabulary:
    def test_token_index_roundtrip(self):
        vocab = Vocabulary(("a", "b", "cat"))
        assert vocab.size == 4
        assert vocab.token(0) == BLANK_TOKEN
        for tok in ("a", "b", "cat"):
            assert vocab.token(vocab.index(tok)) == tok

    def test_unknown_label(self):
        with pytest.raises(DataError):
            Vocabulary(("a",)).index("z")

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError):
            Vocabulary(("a", "a"))
        with pytest.raises(DataError):
            Vocabulary(("a b",))
        with pytest.raises(DataError):
            Vocabulary((BLANK_TOKEN,))

    def test_file_roundtrip(self, tmp_path):
        vocab = Vocabulary(("a", "b", "c"))
        path = str(tmp_path / "v.txt")
        write_vocab(path, vocab)
        assert read_vocab(path).labels == ("a", "b", "c")

    def test_file_must_lead_with_blank(self, tmp_path):
        path = str(tmp_path / "v.txt")
        with open(path, "w") as fh:
            fh.write("a\nb\n")
        with pytest.raises(DataError):
            read_vocab(path)


class TestPosteriorgramIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(500)
        p = random_posteriorgram(rng, 6, 4)
        path = str(tmp_path / "p.txt")
        write_posteriorgram(path, p)
        back = read_posteriorgram(path)
        np.testing.assert_allclose(back.log_probs, p.log_probs, atol=1e-15)

    def test_unnormalized_file_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("1 2\n-0.5 -0.5\n")
        with pytest.raises(DataError):
            read_posteriorgram(path)

    def test_short_file_rejected(self, tmp_path):
        path = str(tmp_path / "short.txt")
        with open(path, "w") as fh:
            fh.write("2 2\n-0.693147180559945 -0.693147180559945\n")
        with pytest.raises(DataError):
            read_posteriorgram(path)


class TestLabelStrings:
    def test_parse_and_format(self):
        vocab = Vocabulary(("a", "b"))
        seq = parse_label_string("a b a", vocab)
        assert seq == (1, 2, 1)
        assert format_label_sequence(seq, vocab) == "a b a"

    def test_parse_unknown(self):
        with pytest.raises(DataError):
            parse_label_string("a z", Vocabulary(("a",)))
