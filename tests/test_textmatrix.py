"""The one-call text-matrix reader against the row-by-row reference.

Every file must give the same array, bit for bit, or the same
`DataError` message from both readers.
"""

import numpy as np
import pytest

from speechground.errors import DataError
from speechground.textmatrix import read_text_matrix, write_text_matrix
from tests import textmatrix_reference as reference

EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan,
                        np.inf, -np.inf, 1.0, -2.5e-300])

# written by hand: each pins one way a file can be read or refused
HAND_CASES = [
    "2 2\n1 2 3\n4\n",                # ragged rows holding T*K values in all
    "2 2\n1 2 3 4\n\n",
    "2 2\n1 2\n3 4",                  # no newline after the last row
    "2 2\n1 2\n",                     # ends after one row
    "2 2\n1 2\n\n",                   # an empty row
    "2 2\n1 2\n3 4\n\n \x0c\n\t\n",   # trailing blank lines
    "2 2\n1 2\n3 4\n\n5\n",           # content after blank lines
    "2 2\n1_0 Infinity\n-nan +inf\n",
    "2 2\n1e999 -1e999\n1e-999 -0\n",
    "2 2\r1 2\r3 4\r",                # carriage returns end lines too
    "2 2\r\n1 2\r\n3 4\r\n",
    "2 2\n1 2\x0c3 4\n",              # a form feed is a space, not a line break
    "2 2\n1\x0c2\n3\x0b4\n",
    "1 2\n1\x852\n", "1 2\n1 2\n",
    "0 3\n", "0 3", "0 3\n\n  \n", "0 3\nx\n", "0 1\n\x0c",
    "3 1\n1\n2\n3\n4\n", "1 1\nnan\n", "1 1\n0x10\n", "1 1\n1,5\n",
    "", "\n", "2\n", "a b\n", "2 2 2\n", "-1 3\n", "2 0\n", "1_0 1\n" + "1\n" * 10,
    " 2  2 \n1 2\n3 4\n", "2 2\n 1 2 \n 3 4 \n",
]

INSERTS = ["0", "1", "9", "-", "+", ".", "e", " ", "  ", "\t", "\n", "\n\n", "\r",
           "\r\n", "\x0c", "\x0b", "_", "1_0", "Infinity", "inf", "nan", "x", ",",
           "0x1", "\n \n"]


def outcome(reader, path):
    """The array's dtype, shape and bytes, or the error message."""
    try:
        data = reader(str(path), "posteriorgram")
    except DataError as exc:
        return ("error", str(exc))
    return ("array", data.dtype.str, data.shape, data.tobytes())


def seeded_matrix(rng):
    t, k = int(rng.integers(0, 7)), int(rng.integers(1, 6))
    data = rng.standard_normal((t, k)) * 10.0 ** rng.integers(-300, 300, (t, k))
    edge = rng.random((t, k)) < 0.3
    data[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
    return data


def corrupt(text, rng):
    """One to three seeded edits: delete, insert or swap a space and a line break."""
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(0, 4))
        at = int(rng.integers(0, len(text) + 1))
        if op == 0 and text:
            at = min(at, len(text) - 1)
            text = text[:at] + text[at + 1:]
        elif op == 1:
            text = text[:at] + str(rng.choice(INSERTS)) + text[at:]
        elif op == 2:  # move a line break: ragged rows, the same count of values
            spaces = [i for i, c in enumerate(text) if c == " "]
            breaks = [i for i, c in enumerate(text) if c == "\n"][1:-1]
            if spaces and breaks:
                s, b = int(rng.choice(spaces)), int(rng.choice(breaks))
                chars = list(text)
                chars[s], chars[b] = "\n", " "
                text = "".join(chars)
        else:
            text = text[:at] + "\n" + text[at:]
    return text


def test_seeded_matrices_read_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "m.post"
    for case in range(400):
        data = seeded_matrix(rng)
        write_text_matrix(str(path), data)
        got = outcome(read_text_matrix, path)
        assert got == outcome(reference.read_text_matrix, path), case
        assert got == ("array", "<f8", data.shape, data.tobytes()), case


@pytest.mark.parametrize("text", HAND_CASES)
def test_hand_written_files(text, tmp_path):
    path = tmp_path / "m.post"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_text_matrix, path) == outcome(reference.read_text_matrix, path)


def test_corrupted_files_match_the_reference(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "m.post"
    kinds = set()
    for case in range(6000):
        data = seeded_matrix(rng)
        write_text_matrix(str(path), data)
        text = corrupt(path.read_text(encoding="utf-8"), rng)
        path.write_bytes(text.encode("utf-8"))
        got = outcome(read_text_matrix, path)
        assert got == outcome(reference.read_text_matrix, path), (case, text)
        kinds.add(got[0] if got[0] == "array" else
                  next((m for m in ("ends after", "has content after", "values, expected",
                                    "row", "header", "shape") if m in got[1]), got[1]))
    # both outcomes and every message of the row reader occur
    assert kinds == {"array", "ends after", "has content after", "values, expected",
                     "row", "header", "shape"}
