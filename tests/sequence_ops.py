"""Hermite sequence constructions that only the tests use: the delta data of
the basic limit functions and the shift operator."""

from dataclasses import replace

import numpy as np

from geomwave.sequences import HermiteSequence, periodic_sequence


def delta_sequence(m: int, length: int, pair=(1.0, 0.0)) -> HermiteSequence:
    """Periodic sequence with one unit pair at index 0, zero elsewhere."""
    p = np.zeros((length, m))
    v = np.zeros((length, m))
    p[0, :] = pair[0]
    v[0, :] = pair[1]
    return periodic_sequence(p, v)


def shift(s: HermiteSequence, k: int) -> HermiteSequence:
    """Shift operator L^k: (L^k s)_i = s_{i+k}."""
    if s.periodic:
        return replace(
            s, points=np.roll(s.points, -k, axis=0), vectors=np.roll(s.vectors, -k, axis=0)
        )
    return replace(s, start=s.start - k)
