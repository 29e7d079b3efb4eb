"""Measurement operators built without their invariant checks, for the tests
that hand the library an operator no checked constructor would accept."""

import numpy as np

from smplab.qcore import MeasurementOperator


def unchecked_operator(entries) -> MeasurementOperator:
    """A read-only MeasurementOperator over ``entries``, built the way
    ``qcore._owning`` builds a density matrix: nothing is checked."""
    a = np.array(entries, dtype=np.complex128)
    a.setflags(write=False)
    e = object.__new__(MeasurementOperator)
    object.__setattr__(e, "entries", a)
    return e
