import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab import qcore
from smplab.config import with_overrides
from smplab.errors import DimensionCapError, VanishingProjectionError
from smplab.qcore import (
    DensityMatrix,
    MeasurementOperator,
    Observable,
    PureState,
    acceptance_probability,
    average_observable,
    band_edge_margin,
    band_projector,
    hermiticity_defect,
    maximally_mixed,
    project_renormalize,
    random_density,
    random_measurement_operator,
)
from unchecked import unchecked_operator

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def dm(entries):
    return DensityMatrix(np.asarray(entries, dtype=complex))


def op(entries):
    return MeasurementOperator(np.asarray(entries, dtype=complex))


def identity(dim: int) -> MeasurementOperator:
    return unchecked_operator(np.eye(dim))


def tensor_power(rho: DensityMatrix, r: int) -> DensityMatrix:
    """``r`` independent copies of ``rho`` as one density matrix: the oracle
    for ``average_observable``."""
    return qcore._owning(functools.reduce(np.kron, [rho.entries] * r))


class TestTypeInvariants:
    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            dm(np.eye(2))

    def test_density_requires_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            dm([[1.5, 0], [0, -0.5]])

    def test_density_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dm([[0.5, 0.5], [0.0, 0.5]])

    def test_density_requires_power_of_two_dim(self):
        with pytest.raises(ValueError, match="power of two"):
            dm(np.eye(3) / 3)

    def test_operator_spectrum_must_fit_unit_interval(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            op(np.diag([1.2, 0.0]))

    def test_random_constructions_satisfy_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density(4, rng)
            assert abs(np.trace(rho.entries) - 1) <= 1e-9
            assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9
            e = random_measurement_operator(4, rng)
            w = np.linalg.eigvalsh(e.entries)
            assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9


class TestAcceptanceProbability:
    def test_identity_operator_accepts_everything(self):
        rho = PureState(PLUS).density()
        assert acceptance_probability(identity(2), rho) == 1.0

    def test_maximally_mixed_half(self):
        e = op(np.diag([1.0, 0.0]))
        assert acceptance_probability(e, maximally_mixed(1)) == 0.5

    def test_matches_entrywise_sum_oracle(self):
        # oracle: Tr(E rho) recomputed as an explicit double sum over entries
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density(4, rng)
            e = random_measurement_operator(4, rng)
            oracle = 0.0 + 0.0j
            for i in range(4):
                for j in range(4):
                    oracle += e.entries[i, j] * rho.entries[j, i]
            assert abs(acceptance_probability(e, rho) - oracle.real) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            acceptance_probability(identity(4), maximally_mixed(1))

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r1, r2 = random_density(4, rng), random_density(4, rng)
            e = random_measurement_operator(4, rng)
            a = rng.uniform()
            mix = DensityMatrix(a * r1.entries + (1 - a) * r2.entries)
            lhs = acceptance_probability(e, mix)
            rhs = a * acceptance_probability(e, r1) + (1 - a) * acceptance_probability(e, r2)
            assert abs(lhs - rhs) <= 1e-9


class TestTensorPower:
    """The test oracle above, on powers known by hand."""

    def test_pure_product(self):
        rho = PureState(KET0).density()
        sq = tensor_power(rho, 2)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(sq.entries, expect)

    def test_mixed_power(self):
        cube = tensor_power(maximally_mixed(1), 3)
        assert np.allclose(cube.entries, np.eye(8) / 8)
        assert np.allclose(np.linalg.eigvalsh(cube.entries), 1 / 8)


class TestAverageObservable:
    def test_identity_stays_identity(self):
        f = average_observable(identity(2), 3)
        assert f.eigenvalues == (1.0,)
        assert np.allclose(f.matrix, np.eye(8))

    def test_success_fraction_spectrum(self):
        # oracle: enumerate the 4 two-copy basis states of diag(1,0) and count
        # accepted copies: |00> -> 2/2, |01>,|10> -> 1/2, |11> -> 0/2.
        f = average_observable(op(np.diag([1.0, 0.0])), 2)
        assert np.allclose(f.eigenvalues, [0.0, 0.5, 1.0])
        mults = [b - a for a, b in f.blocks]
        assert mults == [1, 2, 1]

    def test_expectation_identity_random(self):
        rng = np.random.default_rng(13)
        e = random_measurement_operator(2, rng)
        f = average_observable(e, 2)
        for _ in range(10):
            rho = random_density(2, rng)
            lhs = f.expectation(tensor_power(rho, 2))
            rhs = acceptance_probability(e, rho)
            assert abs(lhs - rhs) <= 1e-8

    def test_expectation_identity_up_to_three_copies(self):
        rng = np.random.default_rng(17)
        for r in (1, 2, 3):
            e = random_measurement_operator(2, rng)
            rho = random_density(2, rng)
            f = average_observable(e, r)
            assert abs(f.expectation(tensor_power(rho, r)) - acceptance_probability(e, rho)) <= 1e-8


class TestSpectralDecompose:
    """The spectral decomposition ``average_observable`` builds, at r = 1."""

    def test_identity_single_space(self):
        obs = average_observable(op(np.eye(4)), 1)
        assert len(obs.eigenvalues) == 1
        assert np.allclose(band_projector(obs, obs.eigenvalues[0], 0.0), np.eye(4))

    def test_reconstruction_random(self):
        e = random_measurement_operator(8, np.random.default_rng(23))
        obs = average_observable(e, 1)
        assert np.max(np.abs(obs.matrix - e.entries)) <= 1e-8

    def test_projector_invariants(self):
        obs = average_observable(random_measurement_operator(8, np.random.default_rng(29)), 1)
        projectors = [band_projector(obs, val, 0.0) for val in obs.eigenvalues]
        total = np.zeros((8, 8), dtype=complex)
        for i, p in enumerate(projectors):
            total += p
            for j, q in enumerate(projectors):
                if i != j:
                    assert np.max(np.abs(p @ q)) <= 1e-9
        assert np.max(np.abs(total - np.eye(8))) <= 1e-9


class TestBandProjector:
    def test_selects_middle_eigenvalue(self):
        f = average_observable(op(np.diag([0.1, 0.5, 0.9, 0.9])), 1)
        m = band_projector(f, 0.5, 0.2)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(m, expect)

    def test_full_band_is_identity(self):
        rng = np.random.default_rng(31)
        f = average_observable(random_measurement_operator(4, rng), 1)
        assert np.allclose(band_projector(f, 0.5, 0.5), np.eye(4))

    def test_half_success_band_from_average(self):
        f = average_observable(op(np.diag([1.0, 0.0])), 2)
        m = band_projector(f, 0.5, 0.1)
        assert int(round(np.trace(m).real)) == 2
        assert np.max(np.abs(m @ m - m)) <= 1e-9

    def test_empty_band_gives_zero(self):
        f = average_observable(op(np.diag([0.0, 1.0])), 1)
        assert np.allclose(band_projector(f, 0.5, 0.1), 0.0)

    def test_idempotent_and_commutes(self):
        rng = np.random.default_rng(37)
        f = average_observable(random_measurement_operator(8, rng), 1)
        m = band_projector(f, 0.4, 0.25)
        assert np.max(np.abs(m @ m - m)) <= 1e-9
        assert np.max(np.abs(m @ f.matrix - f.matrix @ m)) <= 1e-8

    def test_endpoint_eigenvalue_included(self):
        f = average_observable(op(np.diag([0.25, 0.75])), 1)
        m = band_projector(f, 0.5, 0.25)
        assert int(round(np.trace(m).real)) == 2

    def test_edge_margin_reports_closest_distance(self):
        f = average_observable(op(np.diag([0.25, 0.75])), 1)
        assert band_edge_margin(f, 0.5, 0.2) == pytest.approx(0.05)
        assert band_edge_margin(f, 0.5, 0.25) == pytest.approx(0.0, abs=1e-12)


class TestProjectRenormalize:
    def test_identity_projector_keeps_state(self):
        rho = random_density(4, np.random.default_rng(41))
        out = project_renormalize(rho, np.eye(4))
        assert np.allclose(out.entries, rho.entries)

    def test_rank_two_restriction_of_mixed(self):
        m = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        out = project_renormalize(maximally_mixed(2), m)
        assert np.allclose(sorted(np.linalg.eigvalsh(out.entries)), [0, 0, 0.5, 0.5])

    def test_plus_collapses_to_zero(self):
        # oracle: 2x2 hand computation, |0><0| |+><+| |0><0| = (1/2)|0><0|
        rho = PureState(PLUS).density()
        m = np.outer(KET0, KET0).astype(complex)
        out = project_renormalize(rho, m)
        assert np.allclose(out.entries, np.outer(KET0, KET0))

    def test_vanishing_projection_raises(self):
        rho = PureState(KET0).density()
        m = np.outer(KET1, KET1).astype(complex)
        with pytest.raises(VanishingProjectionError):
            project_renormalize(rho, m)

    def test_result_is_read_only_and_its_own(self):
        # the projected array is not copied into the result, so check that it
        # is nobody else's
        rho = random_density(4, np.random.default_rng(44))
        m = np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex)
        out = project_renormalize(rho, m)
        assert not out.entries.flags.writeable
        assert not np.shares_memory(out.entries, m)
        assert not np.shares_memory(out.entries, rho.entries)
        with pytest.raises(ValueError):
            out.entries[0, 0] = 1.0


class TestMaximallyMixed:
    def test_single_qubit(self):
        assert np.allclose(maximally_mixed(1).entries, np.diag([0.5, 0.5]))

    def test_two_qubits(self):
        assert np.allclose(maximally_mixed(2).entries, np.eye(4) / 4)

    def test_trace_linearity(self):
        rng = np.random.default_rng(43)
        for k in (1, 2):
            e = random_measurement_operator(2**k, rng)
            lhs = acceptance_probability(e, maximally_mixed(k))
            assert abs(lhs - np.trace(e.entries).real / 2**k) <= 1e-12

    def test_cap(self):
        with pytest.raises(DimensionCapError):
            maximally_mixed(13)

    @pytest.mark.parametrize("k", range(11))
    def test_bytes_equal_identity_over_dim(self, k):
        d = 2**k
        out = maximally_mixed(k).entries
        assert out.tobytes() == (np.eye(d, dtype=np.complex128) / d).tobytes()
        assert not out.flags.writeable


class TestHermiticityDefect:
    """The row-blocked defect equals the dense formula, NaN included."""

    @staticmethod
    def dense(a):
        return float(np.max(np.abs(a - a.conj().T)))

    @pytest.mark.parametrize("n", [1, 3, 64, 300, 1024])
    def test_equals_dense_formula(self, n):
        g = np.random.default_rng(n)
        a = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        assert hermiticity_defect(a) == self.dense(a)
        h = a + a.conj().T
        assert hermiticity_defect(h) == self.dense(h) == 0.0

    @pytest.mark.parametrize("n, at", [(2, (0, 1)), (300, (299, 3)), (1024, (1000, 17))])
    def test_nan_propagates_from_any_block(self, n, at):
        a = np.eye(n, dtype=complex)
        a[at] = complex(np.nan, 0.0)
        assert math.isnan(hermiticity_defect(a)) and math.isnan(self.dense(a))

    def test_empty(self):
        assert hermiticity_defect(np.zeros((0, 0), dtype=complex)) == 0.0


def test_pure_state_normalizes_and_converts():
    psi = PureState(np.array([1.0, 1.0, 1.0, 1.0]))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
    rho = psi.density()
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    assert psi.num_qubits == 2


def test_observable_requires_sorted_eigenvalues():
    with pytest.raises(ValueError, match="sorted"):
        Observable((1.0, 0.0), np.eye(2, dtype=complex), ((0, 1), (1, 2)))


def test_observable_projectors_realized_from_blocks():
    obs = average_observable(op(np.diag([0.2, 0.2, 0.9, 0.9])), 1)
    projectors = [band_projector(obs, val, 0.0) for val in obs.eigenvalues]
    assert len(projectors) == 2
    for p in projectors:
        assert np.max(np.abs(p @ p - p)) <= 1e-9
    assert np.max(np.abs(projectors[0] + projectors[1] - np.eye(4))) <= 1e-9


def eager_average_basis(e: MeasurementOperator, r: int) -> np.ndarray:
    """The product eigenbasis exactly as it was built and stored before it became lazy."""
    w, v = np.linalg.eigh(e.entries)
    vectors = np.array([[1.0 + 0.0j]])
    sums = np.zeros(1)
    for _ in range(r):
        vectors = np.kron(vectors, v)
        sums = (sums[:, None] + w[None, :]).ravel()
    return vectors[:, np.argsort(sums / r, kind="stable")]


def eager_matrix(f: Observable, vectors: np.ndarray) -> np.ndarray:
    """The dense observable exactly as it was computed from a stored basis."""
    weights = np.empty(vectors.shape[1])
    for (a, b), val in zip(f.blocks, f.eigenvalues):
        weights[a:b] = val
    return (vectors * weights) @ vectors.conj().T


# q = 1 and q = 2 at every copy count up to 2**10 dimensions (d = 2048 and
# 4096 take the same code path at up to ~0.8 GB per comparison)
LAZY_CASES = [(1, r) for r in range(1, 11)] + [(2, r) for r in range(1, 6)]


class TestLazyProductBasis:
    @pytest.mark.parametrize("q, r", LAZY_CASES)
    def test_basis_equals_eager_kron_chain(self, q, r):
        e = random_measurement_operator(2**q, np.random.default_rng(100 * q + r))
        f = average_observable(e, r)
        assert f.dim == 2 ** (q * r)
        basis, eager = f.basis(), eager_average_basis(e, r)
        assert np.array_equal(basis, eager)
        assert basis.tobytes() == eager.tobytes()  # signed zeros too

    @pytest.mark.parametrize("q, r", [(1, 1), (1, 4), (1, 8), (1, 10), (2, 2), (2, 4)])
    def test_matrix_and_band_equal_eager(self, q, r):
        rng = np.random.default_rng(7 * q + r)
        e = random_measurement_operator(2**q, rng)
        f = average_observable(e, r)
        vectors = eager_average_basis(e, r)
        assert f.matrix.tobytes() == eager_matrix(f, vectors).tobytes()
        center = float(rng.uniform(0.2, 0.8))
        lo, hi = center - 0.15 - 1e-9, center + 0.15 + 1e-9
        selected = [blk for val, blk in zip(f.eigenvalues, f.blocks) if lo <= val <= hi]
        band = band_projector(f, center, 0.15)
        if selected:
            cols = vectors[:, selected[0][0] : selected[-1][1]]
            assert band.tobytes() == (cols @ cols.conj().T).tobytes()
        else:
            assert not band.any()

    def test_stores_only_the_factor(self):
        f = average_observable(random_measurement_operator(2, np.random.default_rng(3)), 10)
        assert f.factor.shape == (2, 2)
        assert f.order.shape == (1024,)
        assert f.copies == 10

    def test_order_must_permute_columns(self):
        with pytest.raises(ValueError, match="permutation"):
            Observable((0.0, 1.0), np.eye(2, dtype=complex), ((0, 2), (2, 4)), 2, [0, 1, 1, 3])
        with pytest.raises(ValueError, match="copies"):
            Observable((0.0,), np.eye(2, dtype=complex), ((0, 1),), 0)


@functools.lru_cache(maxsize=1)
def _observable_and_basis(q: int, r: int):
    f = average_observable(random_measurement_operator(2**q, np.random.default_rng(q * 16 + r)), r)
    return f, f.basis()


# every q in {1, 2} and every r up to the 12-qubit cap, largest first so that
# the cached basis held after the last case is the smallest
COLUMN_CASES = sorted(
    ((q, r) for q in (1, 2) for r in range(1, 12 // q + 1)), key=lambda c: -c[0] * c[1]
)


class TestColumns:
    @pytest.mark.parametrize("q, r", COLUMN_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_columns_equal_basis_slice(self, q, r, data):
        f, basis = _observable_and_basis(q, r)
        # every a < b but (0, dim): basis() is columns(0, dim) by definition
        a = data.draw(st.integers(0, f.dim - 1), label="a")
        b = data.draw(st.integers(a + 1, f.dim if a else f.dim - 1), label="b")
        # both are laid out in Fortran order (as the fancy-indexed basis
        # always was), so their bytes in that order copy fastest
        assert f.columns(a, b).tobytes("F") == basis[:, a:b].tobytes("F")

    def test_empty_range_has_no_columns(self):
        f = average_observable(op(np.diag([0.25, 1.0])), 3)
        assert f.columns(4, 4).shape == (8, 0)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_matrix_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_measurement_operator_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementOperator(np.full((2, 2), bad))

    def test_single_entry_is_enough(self):
        a = np.eye(2, dtype=complex) / 2
        a[1, 0] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(a)


@pytest.mark.parametrize("register", [DensityMatrix, MeasurementOperator])
@pytest.mark.parametrize("entries, message", [
    (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.full((3, 3), np.nan), "dimension 3 is not a power of two"),
    (np.array([[0.5, 1.0], [np.inf, 0.5]]), "matrix has non-finite entries"),
    (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian: defect 1.000e+00"),
], ids=["not-square", "wrong-size", "non-finite", "not-hermitian"])
def test_checked_registers_refuse_in_order(register, entries, message):
    # the wrong-size and non-finite matrices fail the later checks too, so
    # their texts pin the order of the checks
    with pytest.raises(ValueError) as err:
        register(entries)
    assert str(err.value) == message


def test_every_register_counts_its_qubits():
    assert DensityMatrix(np.eye(4) / 4).num_qubits == 2
    assert MeasurementOperator(np.eye(8)).num_qubits == 3
    assert PureState(np.ones(2)).num_qubits == 1


def rotated_diag(diag, seed: int) -> np.ndarray:
    """U diag(...) U^dagger for a Haar-ish U: a Hermitian matrix with a known spectrum."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(len(diag), len(diag))) + 1j * rng.normal(size=(len(diag), len(diag)))
    u, _ = np.linalg.qr(g)
    a = (u * np.asarray(diag)) @ u.conj().T
    return (a + a.conj().T) / 2


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the eigenvalue fallbacks the PSD check takes."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestPsdCheck:
    PSD = 1e-9

    def spectrum(self, lowest: float, dim: int = 8) -> list[float]:
        rest = (1.0 - lowest) / (dim - 1)
        return [lowest] + [rest] * (dim - 1)

    def test_twice_the_slack_below_zero_raises_eigvalsh_message(self, eigvalsh_calls):
        a = rotated_diag(self.spectrum(-2 * self.PSD), 1)
        lo = float(np.linalg.eigvalsh(a).min())
        with pytest.raises(ValueError) as err:
            DensityMatrix(a)
        assert str(err.value) == f"not PSD: minimum eigenvalue {lo:.3e}"

    def test_within_slack_passes_through_the_fallback(self, eigvalsh_calls):
        DensityMatrix(rotated_diag(self.spectrum(-0.75 * self.PSD), 2))
        assert eigvalsh_calls == [(8, 8)]

    def test_rank_deficient_projection_passes_through_cholesky(self, eigvalsh_calls):
        rho = random_density(16, np.random.default_rng(5))
        m = rotated_diag([1.0] * 5 + [0.0] * 11, 6)
        m = np.round(m @ m, 15)  # still a projector to rounding, rank 5 of 16
        out = project_renormalize(rho, m)
        assert np.linalg.matrix_rank(out.entries, tol=1e-9) == 5
        assert eigvalsh_calls == []

    def test_maximally_mixed_band_projection_skips_eigvalsh(self, eigvalsh_calls):
        f = average_observable(random_measurement_operator(2, np.random.default_rng(9)), 8)
        center = f.eigenvalues[len(f.eigenvalues) // 2]
        eigvalsh_calls.clear()  # the operator's own spectrum check
        out = project_renormalize(maximally_mixed(8), band_projector(f, center, 0.05))
        assert abs(np.trace(out.entries).real - 1.0) <= 1e-12
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("seed", range(6))
    def test_accepts_only_what_eigvalsh_accepts(self, seed):
        # around the boundary the Cholesky route may defer to eigvalsh, but any
        # state it accepts has eigvalsh minimum >= -psd, and rejections match
        rng = np.random.default_rng(seed)
        for lowest in rng.uniform(-3 * self.PSD, self.PSD, size=8):
            a = rotated_diag(self.spectrum(float(lowest), 16), int(rng.integers(1 << 30)))
            lo = float(np.linalg.eigvalsh(a).min())
            if lo < -self.PSD:
                with pytest.raises(ValueError, match=f"minimum eigenvalue {lo:.3e}"):
                    DensityMatrix(a)
            else:
                DensityMatrix(a)


class TestCallerTolerances:
    def test_tightened_psd_is_honoured(self):
        a = rotated_diag([-1e-10, 0.5 + 5e-11, 0.5 + 5e-11, 0.0], 11)
        DensityMatrix(a)
        tight = with_overrides(psd=1e-12)
        with pytest.raises(ValueError, match="not PSD"):
            DensityMatrix(a, tol=tight)

    def test_project_renormalize_validates_with_caller_tolerances(self):
        a = rotated_diag([-1e-10, 0.5 + 5e-11, 0.5 + 5e-11, 0.0], 12)
        rho = DensityMatrix(a)
        project_renormalize(rho, np.eye(4))
        with pytest.raises(ValueError, match="not PSD"):
            project_renormalize(rho, np.eye(4), with_overrides(psd=1e-12))

    def test_tightened_operator_spectrum_is_honoured(self):
        e = np.diag([1.0 + 5e-10, 0.0]).astype(complex)
        MeasurementOperator(e)
        with pytest.raises(ValueError, match="eigenvalues"):
            MeasurementOperator(e, tol=with_overrides(operator_spectrum=1e-12))


class TestAcceptanceRange:
    def test_above_one_raises(self):
        e = unchecked_operator(2.0 * np.eye(2))
        with pytest.raises(ValueError, match="outside"):
            acceptance_probability(e, PureState(KET0).density())

    def test_below_zero_raises(self):
        e = unchecked_operator(-0.5 * np.eye(2))
        with pytest.raises(ValueError, match="outside"):
            acceptance_probability(e, PureState(KET0).density())

    def test_nan_raises(self):
        e = unchecked_operator(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="outside"):
            acceptance_probability(e, PureState(KET0).density())

    @pytest.mark.parametrize("value, clamped", [(1.0 + 5e-10, 1.0), (-5e-10, 0.0), (0.25, 0.25)])
    def test_within_slack_is_clamped(self, value, clamped):
        e = unchecked_operator(value * np.eye(2))
        assert acceptance_probability(e, PureState(KET0).density()) == clamped


def _half_plus() -> DensityMatrix:
    return PureState([1, 1]).density()


@pytest.mark.parametrize("call, message", [
    (lambda: DensityMatrix(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: PureState([0, 0]).density(), "zero state vector"),
    (lambda: MeasurementOperator(np.array([[0, 1], [0, 0]])), "not Hermitian: defect 1.000e+00"),
    (lambda: PureState(np.zeros(2)), "zero state vector"),
    (lambda: Observable((), np.eye(2), ()), "need one column block per eigenvalue"),
    (lambda: Observable((0.0, 1.0), np.eye(2), ((0, 1), (0, 2))),
     "blocks must partition the columns in order"),
    (lambda: acceptance_probability(
        unchecked_operator([[0, 1j], [0, 0]]), _half_plus()),
     "trace has imaginary part 5.000e-01"),
    (lambda: average_observable(MeasurementOperator(np.eye(2)), 0), "need r >= 1"),
    (lambda: band_projector(average_observable(MeasurementOperator(np.eye(2)), 1), 0.5, -0.1),
     "halfwidth must be nonnegative"),
    (lambda: project_renormalize(_half_plus(), np.eye(4)), "projector/state dimension mismatch"),
], ids=["not-square", "zero-density-vector", "not-hermitian", "zero-pure-vector",
        "no-blocks", "overlapping-blocks", "imaginary-trace", "no-copies",
        "negative-halfwidth", "projector-size"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
