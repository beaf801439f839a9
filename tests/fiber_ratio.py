"""The linearization ratio of the fiber difference, which the transform tests
and acceptance criterion 11 hold near 1 at small scales."""

import numpy as np

from geomwave.transform import ominus


def ominus_lipschitz_ratio(
    M,
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
) -> float:
    """||a (-) b||_inf over the flat ambient difference ||a - b||_inf."""
    _, u0, u1 = ominus(M, a, b)
    num = max(np.abs(u0).max(), np.abs(u1).max())
    denom = max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max())
    if denom == 0.0:
        raise ValueError("Lipschitz ratio undefined for coincident pairs")
    return float(num / denom)
