import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.qcore import random_density
from smplab.serialize import (
    load_matrix,
    matrix_from_bytes,
    matrix_from_text,
    matrix_to_bytes,
    save_matrix,
)


def matrix_to_text(a: np.ndarray) -> str:
    """The text form ``matrix_from_text`` reads: a dim header, then one line
    per row of re,im pairs, each float written by its repr."""
    a = np.asarray(a, dtype=np.complex128)
    lines = [f"qmat v1 dim={a.shape[0]}"]
    for row in a:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def test_binary_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = random_density(8, rng).entries
    path = tmp_path / "rho.qmat"
    save_matrix(path, a)
    back = load_matrix(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, a)


def test_binary_rejects_garbage():
    with pytest.raises(ValueError, match="magic"):
        matrix_from_bytes(b"nope" + b"\x00" * 32)
    good = matrix_to_bytes(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="truncated"):
        matrix_from_bytes(good[:-8])


def test_text_roundtrip_exact():
    rng = np.random.default_rng(1)
    a = random_density(4, rng).entries
    back = matrix_from_text(matrix_to_text(a))
    assert np.array_equal(back, a)


def test_binary_rejects_short_header():
    with pytest.raises(ValueError, match="truncated matrix container header \\(6 of 12"):
        matrix_from_bytes(b"QMAT\x01\x00")


def test_text_rejects_empty():
    for text in ("", " \n\n"):
        with pytest.raises(ValueError, match="empty text matrix"):
            matrix_from_text(text)


@st.composite
def _finite_matrices(draw):
    dim = draw(st.integers(0, 4))
    cells = st.complex_numbers(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cells, min_size=dim * dim, max_size=dim * dim))
    return np.array(values, dtype=np.complex128).reshape(dim, dim)


@settings(max_examples=200, deadline=None)
@given(a=_finite_matrices())
def test_containers_roundtrip_finite_matrices(a):
    assert np.array_equal(matrix_from_bytes(matrix_to_bytes(a)), a)
    assert np.array_equal(matrix_from_text(matrix_to_text(a)), a)


def test_text_header_checked():
    with pytest.raises(ValueError, match="header"):
        matrix_from_text("bogus\n1,0 0,0\n")


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        matrix_to_bytes(np.zeros((2, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_from_bytes(b"QMAT" + struct.pack("<II", 2, 1)),
     "unsupported container version 2"),
    (lambda: matrix_from_text("qmat v1 dim=2\n1,0 0,0"), "expected 2 rows, found 1"),
    (lambda: matrix_from_text("qmat v1 dim=2\n1,0 0,0\n0,0"), "row 1 has 1 entries, expected 2"),
], ids=["version", "row-count", "row-length"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
