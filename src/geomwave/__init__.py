"""Interpolatory Hermite multiwavelet transforms for vector-valued and
manifold-valued (sphere, rotation group) data.

Core pipeline: an interpolatory Hermite subdivision predictor (cubic or
level-dependent exponential), the derived biorthogonal prediction-correction
filter bank, and its geodesic analogue built from exp/log/parallel-transport,
with detail coefficients living in fibers of TM + TM.

The names below, and the submodules they come from, are imported on first
use (PEP 562), so importing one submodule (``geomwave.cli`` for
``decompose``) does not load the others.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "BaseMismatchError",
        "CutLocusError",
        "DensityError",
        "GeomwaveError",
        "SchemaError",
        "VerificationFailure",
    ),
    "predictors": (
        "MaskProvider",
        "cubic_hermite_mask",
        "cubic_provider",
        "exponential_hermite_mask",
        "exponential_provider",
    ),
    "sequences": ("HermiteSequence", "Mask", "periodic_sequence", "interior_sequence"),
    "filterbank": (
        "PredictionCorrectionBank",
        "build_bank",
        "decompose_linear",
        "reconstruct_linear",
    ),
    "manifolds": ("Euclidean", "SO3Quat", "Sphere2", "manifold_from_tag"),
    "transform": (
        "ManifoldHermiteSeq",
        "ManifoldPyramid",
        "decompose_manifold",
        "reconstruct_manifold",
    ),
    "signals": ("get_preset", "preset_names", "sample_signal"),
    "experiments": ("decay_experiment", "verify_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
