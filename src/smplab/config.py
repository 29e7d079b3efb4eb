"""Central numerical configuration: every tolerance and cap in one record."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """All numerical tolerances and resource caps used across the library.

    Operations take an optional ``tol`` argument defaulting to ``DEFAULT``;
    build a modified copy with :func:`with_overrides` to change values.
    Construction raises ValueError naming a field whose value is not a finite
    real >= 0 (a tolerance) or an int >= 1 (a cap); a bool is neither.
    """

    hermitian: float = 1e-10         # max-norm of A - A^dagger
    trace_one: float = 1e-9          # |Tr(rho) - 1|
    psd: float = 1e-9                # eigenvalues >= -psd
    operator_spectrum: float = 1e-9  # measurement-operator eigenvalues in [-tol, 1+tol]
    imag_trace: float = 1e-9         # allowed imaginary part of Tr(E rho)
    group_tol: float = 1e-9          # eigenvalue clustering width
    band_pad: float = 1e-9           # closed-interval padding for band projectors
    band_edge_flag: float = 1e-6     # flag eigenvalues this close to a band edge
    zero_projection: float = 1e-12   # Tr(M rho M) at or below this is degenerate
    distribution: float = 1e-12      # message / coin distributions must sum to 1
    dim_cap: int = 4096              # largest allowed matrix dimension (2**12)
    enum_cap: int = 1 << 20          # exact-acceptance term budget
    learn_qubit_budget: int = 8      # default total-qubit budget for state learning
    relation_xy_cap: int = 36        # |X|*|Y| cap for exhaustive relation search
    relation_bits_cap: int = 6       # max c_A + c_B for exhaustive relation search

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, int):  # a cap
                ok, want = isinstance(v, int) and v >= 1, "an int >= 1"
            else:
                ok = isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
                want = "a finite real >= 0"
            if isinstance(v, bool) or not ok:
                raise ValueError(f"tolerance {f.name} must be {want}, got {v!r}")


DEFAULT = Tolerances()


def with_overrides(tol: Tolerances = DEFAULT, **kwargs) -> Tolerances:
    """Return a copy of ``tol`` with the named fields replaced."""
    return replace(tol, **kwargs)
