"""Desk-scale simulation lab for simultaneous message passing protocols.

Alice and Bob each send one message (classical bits or a quantum state) to a
referee who computes the output.  The library provides exact and Monte-Carlo
evaluation of such protocols, concrete equality/matching protocols, message
replacement transforms (derandomization and quantum-to-classical compilation),
and brute-force oracles that ground-truth every checkable claim at small sizes.
"""

from .config import DEFAULT, Tolerances, with_overrides
from .qcore import (
    DensityMatrix,
    MeasurementOperator,
    Observable,
    PureState,
    acceptance_probability,
    average_observable,
    band_edge_margin,
    band_projector,
    maximally_mixed,
    project_renormalize,
)

__version__ = "0.1.0"
