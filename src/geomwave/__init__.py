"""Interpolatory Hermite multiwavelet transforms for vector-valued and
manifold-valued (sphere, rotation group) data.

Core pipeline: an interpolatory Hermite subdivision predictor (cubic or
level-dependent exponential), the derived biorthogonal prediction-correction
filter bank, and its geodesic analogue built from exp/log/parallel-transport,
with detail coefficients living in fibers of TM + TM.

Each name is imported from the submodule that defines it (``from
geomwave.transform import decompose_manifold``); importing the package
loads none of them.
"""

__version__ = "0.1.0"
