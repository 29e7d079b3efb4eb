import numpy as np
import pytest

from smplab.codes import (
    LinearCode,
    cyclic_mask_code,
    encode,
    hadamard_code,
    min_distance_bruteforce,
)


def test_zero_message_encodes_to_zero():
    code = hadamard_code(3)
    assert encode(code, 0).sum() == 0


def test_hadamard_n2_explicit_codeword():
    # oracle: <x, s> for x = 1, bits (1, 0) least significant first, against
    # masks s = 0, 1, 2, 3 is 0, 1, 0, 1
    code = hadamard_code(2)
    assert list(encode(code, 1)) == [0, 1, 0, 1]


def test_linearity():
    rng = np.random.default_rng(2)
    code = hadamard_code(4)
    for _ in range(20):
        x, y = rng.integers(0, 16, size=2)
        assert np.array_equal(encode(code, int(x ^ y)), encode(code, int(x)) ^ encode(code, int(y)))


def test_hadamard_distance_closed_form():
    # oracle: enumerate the 7 nonzero messages at n=3 and take min weight
    code = hadamard_code(3)
    weights = [int(encode(code, x).sum()) for x in range(1, 8)]
    assert min(weights) == 4
    assert min_distance_bruteforce(code) == 4


@pytest.mark.parametrize("n", range(1, 8))
def test_hadamard_family_rate_and_distance(n):
    code = hadamard_code(n)
    assert code.m == 2**n
    assert min_distance_bruteforce(code) == 2 ** (n - 1)
    assert min_distance_bruteforce(code) / code.m == 0.5


def test_repetition_code_distance():
    assert min_distance_bruteforce(LinearCode(np.ones((5, 1), dtype=np.uint8), 1, 5)) == 5


def test_random_code_distance_matches_second_scan():
    # oracle: independent exhaustive weight scan written differently
    rng = np.random.default_rng(7)
    code = LinearCode(rng.integers(0, 2, size=(12, 5), dtype=np.uint8), 3, 4)
    scan = min(
        int(((code.generator @ np.array([(x >> j) & 1 for j in range(5)], dtype=np.uint8)) % 2).sum())
        for x in range(1, 32)
    )
    assert min_distance_bruteforce(code) == scan


def test_bruteforce_cap():
    with pytest.raises(ValueError, match="capped"):
        min_distance_bruteforce(LinearCode(np.ones((2, 13), dtype=np.uint8), 1, 2))


def test_grid_view_is_a_bijection():
    code = hadamard_code(3)  # m = 8 as 2x4
    seen = set()
    grid = np.arange(code.m).reshape(code.grid_rows, code.grid_cols)
    for r in range(code.grid_rows):
        for c in range(code.grid_cols):
            seen.add(int(grid[r, c]))
    assert seen == set(range(code.m))


def test_cyclic_mask_code_shape_and_distance():
    g = cyclic_mask_code(2, 20)
    assert g.n == 2 and g.m == 20
    assert min_distance_bruteforce(g) / g.m >= 0.5


def test_cyclic_mask_code_k1_is_repetition():
    g = cyclic_mask_code(1, 10)
    assert np.array_equal(encode(g, 1), np.ones(10, dtype=np.uint8))


@pytest.mark.parametrize("call, message", [
    (lambda: LinearCode(np.array([1, 0, 1]), 1, 3), "generator must be a matrix"),
    (lambda: LinearCode(np.ones((4, 1)), 3, 1), "grid 3x1 does not tile 4 codeword bits"),
    (lambda: hadamard_code(0), "need n >= 1"),
    (lambda: cyclic_mask_code(0, 4), "need k >= 1 and m >= 1"),
    (lambda: cyclic_mask_code(2, 0), "need k >= 1 and m >= 1"),
    (lambda: encode(hadamard_code(2), 4), "message 4 is not an int in [0, 2^2)"),
    (lambda: encode(hadamard_code(2), -1), "message -1 is not an int in [0, 2^2)"),
    (lambda: encode(hadamard_code(2), [1, 0]), "message [1, 0] is not an int in [0, 2^2)"),
], ids=["vector-generator", "grid", "hadamard-n", "cyclic-k", "cyclic-m",
        "message-too-large", "negative-message", "bit-vector-message"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
