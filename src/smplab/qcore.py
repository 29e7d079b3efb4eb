"""Exact complex linear algebra for small quantum registers.

Density matrices, measurement operators, observables with factored spectral
decompositions, band projectors, and the renormalized projection update.
Everything is dense complex double precision and immutable; dimensions are
powers of two and capped (default 2**12) so that eigendecompositions stay
fast at desk scale.

An observable keeps only its one-register eigenvectors.  Its eigenbasis
``basis()`` is ``columns(0, dim)``, and a band projector builds only the
columns of its band.  The dense matrix F is cached on first use; the learning
walk drops it once the expectations of its step are taken, so at most one
d x d F is alive at a time.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionCapError, VanishingProjectionError

__all__ = [
    "DensityMatrix",
    "MeasurementOperator",
    "Observable",
    "PureState",
    "acceptance_probability",
    "average_observable",
    "band_projector",
    "band_edge_margin",
    "project_renormalize",
    "maximally_mixed",
    "random_density",
    "random_measurement_operator",
]


def _as_square_complex(entries) -> np.ndarray:
    """A fresh complex copy of a square 2**k x 2**k matrix, writable until checked."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _num_qubits_of(a.shape[0])
    return a


def _num_qubits_of(dim: int) -> int:
    k = dim.bit_length() - 1
    if dim <= 0 or (1 << k) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return k


def _check_dim(dim: int, tol: Tolerances) -> None:
    if dim > tol.dim_cap:
        raise DimensionCapError(f"dimension {dim} exceeds cap {tol.dim_cap}")


# entries per row block of hermiticity_defect's temporaries
_DEFECT_BLOCK = 1 << 16


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm of A - A^dagger for a square A.

    Taken over blocks of rows, so the temporaries stay small; the maximum is
    exact, and a NaN anywhere propagates as ``np.max`` propagates it.
    """
    if not a.size:
        return 0.0
    rows = max(1, _DEFECT_BLOCK // a.shape[0])
    return float(np.max([
        np.max(np.abs(a[i : i + rows] - a[:, i : i + rows].conj().T))
        for i in range(0, a.shape[0], rows)
    ]))


def _check_hermitian(a: np.ndarray, tol: Tolerances) -> None:
    # every comparison with NaN is False, so the checks after this one would pass
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(a)
    if defect > tol.hermitian:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")


def _cholesky_accepts(a: np.ndarray, shift: float) -> bool:
    """True when A + shift*I has a Cholesky factor.

    Success proves min eig(A) > -shift - O(n * eps * ||A||); failure proves
    nothing, so callers fall back to an eigenvalue test.  Reads the lower
    triangle, as ``eigvalsh`` does.  The shift is made on ``a``'s diagonal in
    place and undone by restoring the saved diagonal, so ``a`` must be a
    writable array that no one else reads meanwhile; it ends bit for bit as
    it began.
    """
    diagonal = a.diagonal().copy()
    a.flat[:: a.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    finally:
        a.flat[:: a.shape[0] + 1] = diagonal
    return True


def _check_density(a: np.ndarray, tol: Tolerances) -> None:
    """Raise unless ``a`` is finite, Hermitian, of trace one and PSD within ``tol``.

    ``a`` is a writable array held by the caller alone (see
    :func:`_cholesky_accepts`); it is left unchanged.
    """
    _check_hermitian(a, tol)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol.trace_one:
        raise ValueError(f"trace {tr} is not 1")
    if not _cholesky_accepts(a, tol.psd / 2.0):
        lo = float(np.linalg.eigvalsh(a).min())
        if lo < -tol.psd:
            raise ValueError(f"not PSD: minimum eigenvalue {lo:.3e}")


class _Register:
    """A register of ``dim`` = 2**num_qubits dimensions."""

    @property
    def num_qubits(self) -> int:
        return _num_qubits_of(self.dim)


@dataclass(frozen=True)
class DensityMatrix(_Register):
    """Hermitian, positive semidefinite, trace-one matrix on 2**k dimensions.

    Invariants are checked on construction; :func:`_owning` is the one
    unchecked path, for arrays whose invariants hold by construction.
    """

    entries: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol: Tolerances):
        a = _as_square_complex(self.entries)
        _check_density(a, tol)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _owning(a: np.ndarray) -> DensityMatrix:
    """A DensityMatrix over ``a`` itself, without the defensive copy.

    Only for a square complex array just built by the caller and held by no
    one else; it is made read-only here.  Checks nothing: a caller that needs
    the invariants checked runs :func:`_check_density` first.
    """
    a.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", a)
    return rho


@dataclass(frozen=True)
class MeasurementOperator(_Register):
    """Hermitian matrix with spectrum in [0, 1] (one half of a two-outcome test)."""

    entries: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol: Tolerances):
        a = _as_square_complex(self.entries)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        _check_hermitian(a, tol)
        w = np.linalg.eigvalsh(a)
        if w.min() < -tol.operator_spectrum or w.max() > 1.0 + tol.operator_spectrum:
            raise ValueError(f"eigenvalues [{w.min():.3e}, {w.max():.3e}] not within [0, 1]")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PureState(_Register):
    """Unit vector of amplitudes; a light carrier for rank-one quantum messages."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128).ravel()
        norm = float(np.linalg.norm(v))
        if norm <= 0.0:
            raise ValueError("zero state vector")
        v = v / norm
        _num_qubits_of(v.shape[0])
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        """|psi><psi|, a density matrix by construction: the amplitudes are unit."""
        return _owning(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix described by its eigenvalues and eigenprojectors.

    ``eigenvalues`` are sorted ascending and pairwise distinct beyond the
    grouping tolerance used to build the observable.  The orthonormal
    eigenbasis is the ``copies``-fold tensor power of ``factor`` with its
    columns gathered by ``order`` (default: kept in place); ``blocks[i]`` is
    the column range of eigenvalue i in that basis.  Only the factor is
    stored: ``columns(a, b)`` builds basis columns a:b on demand, and
    ``basis()`` is ``columns(0, dim)``.  So an averaged observable on r
    copies holds O(d) data besides its dense ``matrix``, which is cached on
    first use until its owner drops it: the learning walk drops F after the
    step that reads it.
    """

    eigenvalues: tuple[float, ...]
    factor: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    copies: int = 1
    order: np.ndarray | None = None

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        factor = np.array(self.factor, dtype=np.complex128)
        blocks = tuple((int(a), int(b)) for a, b in self.blocks)
        copies = int(self.copies)
        if factor.ndim != 2 or not vals or len(vals) != len(blocks):
            raise ValueError("need one column block per eigenvalue")
        if copies < 1:
            raise ValueError("need copies >= 1")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be sorted ascending")
        cols = factor.shape[1] ** copies
        order = np.arange(cols) if self.order is None else np.array(self.order, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(cols)):
            raise ValueError("order must be a permutation of the basis columns")
        edges = [a for a, _ in blocks] + [blocks[-1][1]]
        if edges != sorted(set(edges)) or blocks[0][0] != 0 or blocks[-1][1] != cols:
            raise ValueError("blocks must partition the columns in order")
        factor.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "order", order)

    @property
    def dim(self) -> int:
        return self.factor.shape[0] ** self.copies

    def columns(self, a: int, b: int) -> np.ndarray:
        """Eigenvectors a:b of ``basis()`` as columns (a fresh d x (b - a) array).

        Each entry is the product of one factor entry per copy, multiplied
        left to right from 1 as ``np.kron``'s chain does, so the columns are
        bit for bit those of the full basis.
        """
        n, m = self.factor.shape
        picked = self.order[a:b]
        out = np.ones((1, len(picked)), dtype=np.complex128)
        for t in reversed(range(self.copies)):
            digit = picked // m**t % m  # the factor column of this copy
            out = out[:, None, :] * self.factor[None, :, digit]
            out = out.reshape(out.shape[0] * n, len(picked))
        return out

    def basis(self) -> np.ndarray:
        """The eigenvectors as columns, grouped by ``blocks`` (a fresh d x d array)."""
        return self.columns(0, self.dim)

    @cached_property
    def matrix(self) -> np.ndarray:
        vectors = self.basis()
        adjoint = vectors.conj().T
        weights = np.empty(vectors.shape[1])
        for (a, b), val in zip(self.blocks, self.eigenvalues):
            weights[a:b] = val
        vectors *= weights  # in place: the basis is a fresh array
        m = vectors @ adjoint
        m.setflags(write=False)
        return m

    def expectation(self, rho: DensityMatrix) -> float:
        """Tr(F rho), real part (the matrix is Hermitian by construction)."""
        return float(np.sum(self.matrix * rho.entries.T).real)


def acceptance_probability(
    e: MeasurementOperator, rho: DensityMatrix, tol: Tolerances = DEFAULT
) -> float:
    """Probability that the two-outcome measurement (E, I-E) accepts ``rho``.

    Raises if dimensions differ, or if the trace has a non-negligible
    imaginary part or a real part outside [0, 1] by more than
    ``tol.operator_spectrum``: both signal a corrupted operator or state.
    Within that slack the value is clamped to [0, 1].
    """
    if e.dim != rho.dim:
        raise ValueError(f"dimension mismatch: operator {e.dim}, state {rho.dim}")
    tr = complex(np.sum(e.entries * rho.entries.T))
    if abs(tr.imag) > tol.imag_trace:
        raise ValueError(f"trace has imaginary part {tr.imag:.3e}")
    slack = tol.operator_spectrum
    if not -slack <= tr.real <= 1.0 + slack:
        raise ValueError(f"acceptance probability {tr.real!r} is outside [0, 1]")
    return min(1.0, max(0.0, tr.real))


def _cluster(sorted_vals: np.ndarray, group_tol: float) -> list[np.ndarray]:
    """Indices of ``sorted_vals`` grouped where adjacent gaps are <= group_tol."""
    groups: list[np.ndarray] = []
    start = 0
    for i in range(1, len(sorted_vals) + 1):
        if i == len(sorted_vals) or sorted_vals[i] - sorted_vals[i - 1] > group_tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


def average_observable(
    e: MeasurementOperator, r: int, tol: Tolerances = DEFAULT
) -> Observable:
    """Observable measuring the success fraction of applying ``e`` to each of r copies.

    Equals (1/r) * sum_j E^(j) where E^(j) acts on the j-th register.  Its
    spectral decomposition is computed exactly from the decomposition of E:
    eigenvectors are tensor products of E's eigenvectors and eigenvalues are
    the means of the chosen eigenvalue tuples, so ``Tr(F rho^(x) r) = Tr(E rho)``
    holds to machine precision.  Only E's eigenvectors and the eigenvalue
    order are kept; the product basis is rebuilt on demand.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    _check_dim(e.dim**r, tol)
    w, v = np.linalg.eigh(e.entries)

    sums = np.zeros(1)
    for _ in range(r):
        sums = (sums[:, None] + w[None, :]).ravel()
    means = sums / r

    order = np.argsort(means, kind="stable")
    sorted_means = means[order]
    vals, blocks = [], []
    for idx in _cluster(sorted_means, tol.group_tol):
        vals.append(float(np.mean(sorted_means[idx])))
        blocks.append((int(idx[0]), int(idx[-1]) + 1))
    return Observable(tuple(vals), v, tuple(blocks), copies=r, order=order)


def band_projector(
    f: Observable, center: float, halfwidth: float, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Projector onto eigenspaces of ``f`` with eigenvalue in a closed interval.

    The interval is [center - halfwidth, center + halfwidth], padded by
    ``tol.band_pad`` on both sides so that eigenvalues sitting exactly on an
    endpoint are included.  May return the zero matrix.
    """
    if halfwidth < 0.0:
        raise ValueError("halfwidth must be nonnegative")
    lo = center - halfwidth - tol.band_pad
    hi = center + halfwidth + tol.band_pad
    # eigenvalues are ascending, so the selected blocks form one column run
    selected = [blk for val, blk in zip(f.eigenvalues, f.blocks) if lo <= val <= hi]
    if not selected:
        return np.zeros((f.dim, f.dim), dtype=np.complex128)
    cols = f.columns(selected[0][0], selected[-1][1])
    return cols @ cols.conj().T


def band_edge_margin(f: Observable, center: float, halfwidth: float) -> float:
    """Smallest distance from any eigenvalue of ``f`` to either band edge.

    A tiny margin means the inclusive-endpoint convention decided which
    eigenspaces the band projector contains; callers use this to flag
    borderline instances.
    """
    edges = (center - halfwidth, center + halfwidth)
    return min(abs(val - edge) for val in f.eigenvalues for edge in edges)


def project_renormalize(
    rho: DensityMatrix, m: np.ndarray, tol: Tolerances = DEFAULT
) -> DensityMatrix:
    """M rho M / Tr(M rho M) for a projector M, checked as a density matrix.

    Raises :class:`VanishingProjectionError` when the projected trace is at or
    below ``tol.zero_projection``; such instances are degenerate and cannot be
    renormalized.  The result owns its fresh array; nothing is copied.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != rho.entries.shape:
        raise ValueError("projector/state dimension mismatch")
    projected = m @ rho.entries @ m
    trace = float(np.trace(projected).real)
    if trace <= tol.zero_projection:
        raise VanishingProjectionError(step=-1, trace=trace)
    projected /= trace
    _check_density(projected, tol)
    return _owning(projected)


def maximally_mixed(num_qubits: int, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """I / 2**num_qubits (1/dim is exact: dim is a power of two)."""
    dim = 1 << num_qubits
    _check_dim(dim, tol)
    a = np.zeros((dim, dim), dtype=np.complex128)
    a.flat[:: dim + 1] = 1.0 / dim
    return _owning(a)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: G G^dagger / Tr for a complex Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    return DensityMatrix(a / np.trace(a).real)


def random_measurement_operator(dim: int, rng: np.random.Generator) -> MeasurementOperator:
    """Random operator with Haar-ish eigenbasis and uniform spectrum in [0, 1]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.0, 1.0, size=dim)
    return MeasurementOperator((q * w) @ q.conj().T)
