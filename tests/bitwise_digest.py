"""Three SHA-256 digests, for checking that a change leaves every output
bitwise the same: the first over the raw 64-bit words of a fixed sweep of
pyramid outputs, the second over ``verify_suite`` reports, the third over
pyramids large enough that a level runs in several kernel windows.

Run it from the root of a source checkout, once on each tree, and compare
the printed digests line by line (to compare with an older tree, copy this
script into it):

    python3 tests/bitwise_digest.py

It imports the library from the ``src/`` next to this file.  The pyramid
sweep is:

- 240 ``decompose_manifold`` configurations: sphere2 ``wobble``, so3-quat
  ``quatcurve`` and euclidean:3 ``trigblend``; 2^6, 2^9, 2^12 and 2^14
  samples; 0, 1, 3, 5 and min(8, n) levels; the cubic and exp(1)
  predictors; both base point rules.  Each gives its pyramid and its
  reconstruction, or the level, index and message of its DensityError;
- one ``manifold_subdivide_once`` per manifold, size, predictor and rule;
- 222 decompositions of ``wobble`` at 2^8 samples over 4 levels, with the
  cubic predictor, sample j replaced by the antipode of sample j + 2^k, for
  j = 0, 7, ..., 252, k = 1, 2, 3 and both rules; each gives its pyramid
  and reconstruction or its DensityError;
- ``decompose_linear`` and ``reconstruct_linear`` of ``trigblend`` at 2^14
  samples over 8 levels, with the cubic and the exp(1) bank.

The reports are those of ``verify_suite`` for seeds 0-3 and for seed 0 with
``perturb_mask = 1e-3``: each check's name, passed flag, threshold, the raw
word of its residual (or None) and its note.

The large pyramids are ``decompose_linear`` and ``reconstruct_linear`` of
``trigblend`` at 2^16 samples over 8 levels, with the cubic and the exp(1)
bank, and ``decompose_manifold`` and ``reconstruct_manifold`` of sphere2
``wobble`` and so3-quat ``quatcurve`` at 2^15 samples over 8 levels, with
the cubic and the exp(1) predictor and both base point rules.

pytest does not collect this file: its name does not start with ``test_``.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from geomwave.errors import DensityError  # noqa: E402
from geomwave.experiments import verify_suite  # noqa: E402
from geomwave.filterbank import (  # noqa: E402
    build_bank,
    decompose_linear,
    reconstruct_linear,
)
from geomwave.predictors import cubic_provider, exponential_provider  # noqa: E402
from geomwave.signals import get_preset, sample_signal  # noqa: E402
from geomwave.transform import (  # noqa: E402
    RULES,
    ManifoldHermiteSeq,
    decompose_manifold,
    manifold_subdivide_once,
    reconstruct_manifold,
)

CURVES = (
    ("sphere2", "wobble"),
    ("so3-quat", "quatcurve"),
    ("euclidean:3", "trigblend"),
)
SIZES = (6, 9, 12, 14)
PROVIDERS = (("cubic", cubic_provider), ("exp1", lambda: exponential_provider(1.0)))


def feed(h, *items):
    """Hash each item: an array as its shape and raw words, anything else as
    its repr."""
    for x in items:
        if isinstance(x, np.ndarray):
            h.update(repr(x.shape).encode())
            words = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
            h.update(words.tobytes())
        else:
            h.update(repr(x).encode())


def feed_pyramid(h, pyr):
    feed(h, pyr.coarse.level, pyr.coarse.points, pyr.coarse.vectors)
    for d in pyr.details:
        feed(h, d.level, d.bases, d.u0, d.u1)


def feed_decomposition(h, cN, provider, rule, levels):
    try:
        pyr = decompose_manifold(cN, provider, rule, levels)
    except DensityError as err:
        feed(h, "DensityError", err.level, err.index, str(err))
        return
    feed_pyramid(h, pyr)
    c = reconstruct_manifold(pyr)
    feed(h, c.level, c.points, c.vectors)


def digest() -> str:
    h = hashlib.sha256()
    for tag, name in CURVES:
        spec = get_preset(tag, name)
        for n in SIZES:
            cN = sample_signal(spec, n)
            for pname, make in PROVIDERS:
                provider = make()
                for rule in RULES:
                    for levels in sorted({0, 1, 3, 5, min(8, n)}):
                        feed(h, tag, n, pname, rule, levels)
                        feed_decomposition(h, cN, provider, rule, levels)
                    c = manifold_subdivide_once(provider.mask_at(n), cN, rule)
                    feed(h, "step", c.level, c.points, c.vectors)
    cN = sample_signal(get_preset("sphere2", "wobble"), 8)
    M, L = cN.manifold, len(cN)
    provider = cubic_provider()
    for rule in RULES:
        for k in (1, 2, 3):
            for j in range(0, L, 7):
                P, V = cN.points.copy(), cN.vectors.copy()
                P[j] = -P[(j + (1 << k)) % L]
                V[j] = M.project_tangent(P[j], V[j])
                feed(h, "antipode", rule, k, j)
                cJ = ManifoldHermiteSeq(M, P, V, level=8)
                feed_decomposition(h, cJ, provider, rule, 4)
    cN = sample_signal(get_preset("euclidean:3", "trigblend"), 14)
    for pname, make in PROVIDERS:
        bank = build_bank(make())
        pyr = decompose_linear(cN, bank, 8)
        c = reconstruct_linear(pyr, bank)
        feed(h, "linear", pname)
        feed_pyramid(h, pyr)
        feed(h, c.level, c.points, c.vectors)
    return h.hexdigest()


def windowed_digest() -> str:
    h = hashlib.sha256()
    cN = sample_signal(get_preset("euclidean:3", "trigblend"), 16)
    for pname, make in PROVIDERS:
        bank = build_bank(make())
        pyr = decompose_linear(cN, bank, 8)
        c = reconstruct_linear(pyr, bank)
        feed(h, "linear", pname)
        feed_pyramid(h, pyr)
        feed(h, c.level, c.points, c.vectors)
    for tag, name in CURVES[:2]:
        cN = sample_signal(get_preset(tag, name), 15)
        for pname, make in PROVIDERS:
            for rule in RULES:
                feed(h, tag, pname, rule)
                feed_decomposition(h, cN, make(), rule, 8)
    return h.hexdigest()


def verify_digest() -> str:
    h = hashlib.sha256()
    for config in [{"seed": s} for s in range(4)] + [{"perturb_mask": 1e-3}]:
        feed(h, config)
        for c in verify_suite(config).checks:
            residual = None if c.residual is None else np.array([c.residual])
            feed(h, c.name, c.passed, c.threshold, residual, c.note)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
    print(verify_digest())
    print(windowed_digest())
