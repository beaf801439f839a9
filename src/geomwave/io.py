"""File formats (schema "geomwave/1"): samples, pyramids, decay CSV, reports.

All numeric payloads are serialized as JSON numbers with full double
precision (Python's repr round-trips doubles exactly), so write-then-read is
bitwise lossless.  Readers validate the schema with path-addressed error
messages, and check each entry list as whole arrays with the sample
contract of ``Manifold.first_fault`` (finite values, points on M, vectors
tangent at their entry's point) that ``decompose_manifold`` applies, naming
the first offending entry; read values are never renormalized.  Writers
refuse the same rows, before opening the file, so every file the package
writes is one its readers take.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import SchemaError
from .manifolds import Manifold, manifold_from_tag
from .predictors import MaskProvider, provider_from_config
from .sequences import HermiteSequence
from .transform import ManifoldHermiteSeq, ManifoldPyramid, RULES, TangentPairSeq

if TYPE_CHECKING:
    from .experiments import DecayReport, VerifyReport

__all__ = [
    "SCHEMA",
    "open_text",
    "read_samples",
    "write_samples",
    "read_pyramid",
    "write_pyramid",
    "write_report",
    "write_decay_csv",
]

SCHEMA = "geomwave/1"


def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _integer(obj: dict, key: str, path: str) -> int:
    """The integer field ``key``; a bool (an int to Python) is refused."""
    value = _require(obj, key, path)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{path}.{key}", "expected an integer")
    return value


def _refuse_fault(M: Manifold, columns: dict, path: str, first: int = 0):
    """Refuse the first row of the (L, d) columns (point first) that
    ``Manifold.first_fault`` refuses, naming it as path[first + row].key."""
    fault = M.first_fault(*columns.values())
    if fault:
        i, a, reason = fault
        key = list(columns)[a]
        _fail(f"{path}[{first + i}].{key}", f"{'entry' if a else 'point'} {reason}")


def _check_entry(M: Manifold, entry, keys: tuple, path: str, index: int):
    """Entry ``index`` of the list at ``path``: each key a list of d finite
    numbers (not bools); the first on M, and every later one tangent at the
    first (``Manifold.first_fault``)."""
    d = M.ambient_dim
    here = f"{path}[{index}]"
    for k in keys:
        raw = _require(entry, k, here)
        if not isinstance(raw, list) or len(raw) != d:
            _fail(f"{here}.{k}", f"expected a list of {d} numbers")
        for i, x in enumerate(raw):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                _fail(f"{here}.{k}[{i}]", "expected a number")
            try:
                finite = math.isfinite(x)
            except OverflowError:
                _fail(f"{here}.{k}[{i}]", "integer too large for a float")
            if not finite:
                _fail(f"{here}.{k}[{i}]", "non-finite value")
    row = {k: np.array([entry[k]], dtype=float) for k in keys}
    _refuse_fault(M, row, path, first=index)


def _read_entries(M: Manifold, raw, keys: tuple, path: str) -> list:
    """One (L, d) array per key, checked whole by ``Manifold.first_fault``;
    the first faulty entry, or every entry in order when the arrays cannot
    be built, is then re-checked by _check_entry to name the fault."""
    if not isinstance(raw, list) or not raw:
        _fail(path, "expected a non-empty list")
    try:
        rows = [[entry[k] for entry in raw] for k in keys]
        arrays = [np.array(r, dtype=float) for r in rows]
        types = set(map(type, chain.from_iterable(chain.from_iterable(rows))))
        shapes = {a.shape for a in arrays}
        built = types <= {int, float} and shapes == {(len(raw), M.ambient_dim)}
    except (KeyError, TypeError, ValueError, OverflowError):
        built = False
    suspects = range(len(raw))
    if built:
        fault = M.first_fault(*arrays)
        suspects = [fault[0]] if fault else []
    for i in suspects:
        _check_entry(M, raw[i], keys, path, i)
    return arrays


@contextmanager
def open_text(path: str, mode: str = "r"):
    """A UTF-8 text file opened for reading ("r") or writing ("w").  An
    OSError or a byte that is not UTF-8 is a SchemaError naming the path."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise SchemaError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 ({err})") from None


def _load(path: str) -> tuple[dict, Manifold]:
    """Parse a file and check its schema and manifold tag."""
    try:
        with open_text(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from None
    schema = _require(obj, "schema", path)
    if schema != SCHEMA:
        _fail(f"{path}.schema", f"expected {SCHEMA!r}, got {schema!r}")
    try:
        return obj, manifold_from_tag(_require(obj, "manifold", path))
    except ValueError as err:
        _fail(f"{path}.manifold", str(err))


def _write_entries(fh, value, depth: int):
    """Write value as json.dump(indent=1) does at indent depth - 1.  A dict
    of (L, d) finite float columns is a list of entries filled row by row
    into a %r template (repr is json's finite float spelling), 512 per
    write; a list is a list of such dicts."""
    pad = "\n" + " " * depth
    fh.write("[")
    items = value
    if isinstance(value, list):
        for n, columns in enumerate(value):
            fh.write(("," if n else "") + pad)
            _write_entries(fh, columns, depth + 1)
    else:
        entry = pad + "{" + ",".join(
            f'{pad} "{k}": [' + ",".join([pad + "  %r"] * a.shape[1]) + pad + " ]"
            for k, a in value.items()
        ) + pad + "}"
        items = np.hstack(list(value.values()))  # one row per entry
        for i in range(0, len(items), 512):
            chunk = items[i : i + 512]
            text = ",".join([entry] * len(chunk)) % tuple(chunk.ravel().tolist())
            fh.write(("," if i else "") + text)
    fh.write(pad[:-1] + "]" if len(items) else "]")


def _dump(path: str, header: dict, lists: dict):
    """json.dump(schema | header | lists, indent=1) and a newline."""
    with open_text(path, "w") as fh:
        fh.write(json.dumps({"schema": SCHEMA} | header, indent=1)[:-2])
        for key, value in lists.items():
            fh.write(f',\n "{key}": ')
            _write_entries(fh, value, 2)
        fh.write("\n}\n")


# --------------------------------------------------------------------------
# samples


def write_samples(seq: HermiteSequence, path: str):
    """Write a periodic HermiteSequence.  An interior window, or a row that
    ``Manifold.first_fault`` refuses, which no reader takes, is a SchemaError
    (naming the row as ``read_samples`` would); nothing is written."""
    if not seq.periodic:
        _fail(path, "only periodic samples can be written, got an interior window")
    data = {"p": seq.points, "v": seq.vectors}
    _refuse_fault(seq.manifold, data, f"{path}.data")
    tag = seq.manifold.tag
    header = {"manifold": tag, "level": int(seq.level), "boundary": "periodic"}
    _dump(path, header, {"data": data})


def read_samples(path: str) -> HermiteSequence:
    obj, M = _load(path)
    level = _integer(obj, "level", path)
    boundary = _require(obj, "boundary", path)
    if boundary != "periodic":
        _fail(f"{path}.boundary", f"only 'periodic' is supported, got {boundary!r}")
    data = _require(obj, "data", path)
    P, V = _read_entries(M, data, ("p", "v"), f"{path}.data")
    return ManifoldHermiteSeq(M, P, V, level=level)


# --------------------------------------------------------------------------
# pyramids


def provider_from_meta(meta: dict, path: str) -> MaskProvider:
    kind = _require(meta, "kind", path)
    lam = None
    if kind == "exp":
        lam = _require(meta, "lambda", path)
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            _fail(f"{path}.lambda", "expected a number")
        try:
            lam = float(lam)
        except OverflowError:
            _fail(f"{path}.lambda", "integer too large for a float")
    try:
        return provider_from_config(kind, lam)
    except SchemaError as err:
        _fail(f"{path}.{'kind' if lam is None else 'lambda'}", str(err))


def write_pyramid(pyr: ManifoldPyramid, path: str):
    """Write a pyramid.  A coarse or detail row that ``Manifold.first_fault``
    refuses is a SchemaError naming it as ``read_pyramid`` would; nothing is
    written."""
    M = pyr.coarse.manifold
    coarse = {"p": pyr.coarse.points, "v": pyr.coarse.vectors}
    details = [{"base": d.bases, "u0": d.u0, "u1": d.u1} for d in pyr.details]
    _refuse_fault(M, coarse, f"{path}.coarse")
    for n, columns in enumerate(details):
        _refuse_fault(M, columns, f"{path}.details[{n}]")
    header = {
        "manifold": M.tag,
        "predictor": {"kind": pyr.provider.kind, "lambda": pyr.provider.lam},
        "rule": pyr.rule,
        "coarse_level": int(pyr.coarse.level),
    }
    _dump(path, header, {"coarse": coarse, "details": details})


def read_pyramid(path: str) -> ManifoldPyramid:
    obj, M = _load(path)
    provider = provider_from_meta(
        _require(obj, "predictor", path), f"{path}.predictor"
    )
    rule = _require(obj, "rule", path)
    if rule not in RULES:
        _fail(f"{path}.rule", f"expected one of {RULES}, got {rule!r}")
    level = _integer(obj, "coarse_level", path)
    raw_coarse = _require(obj, "coarse", path)
    P, V = _read_entries(M, raw_coarse, ("p", "v"), f"{path}.coarse")
    coarse = ManifoldHermiteSeq(M, P, V, level=level)
    raw_details = _require(obj, "details", path)
    if not isinstance(raw_details, list):
        _fail(f"{path}.details", "expected a list")
    details = []
    length = len(raw_coarse)
    for n, raw_level in enumerate(raw_details):
        here = f"{path}.details[{n}]"
        if not isinstance(raw_level, list) or len(raw_level) != length:
            _fail(here, f"expected a list of {length} detail entries")
        B, U0, U1 = _read_entries(M, raw_level, ("base", "u0", "u1"), here)
        details.append(TangentPairSeq(B, U0, U1))
        length *= 2
    return ManifoldPyramid(coarse, tuple(details), provider, rule)


# --------------------------------------------------------------------------
# reports


def write_report(report: VerifyReport, path: str):
    with open_text(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")


def write_decay_csv(report: DecayReport, path: str):
    """Columns level, sup_norm, log2_ratio; footer rows constant_estimate
    (max_n ||d^[n]|| 4^n), fitted_slope and fit_range (blank when the signal
    is exactly annihilated)."""
    lines = ["level,sup_norm,log2_ratio"]
    for i, (n, s) in enumerate(zip(report.levels, report.sup_norms)):
        have_ratio = 0 < i <= len(report.log2_ratios)
        ratio = repr(report.log2_ratios[i - 1]) if have_ratio else ""
        lines.append(f"{n},{s!r},{ratio}")
    if report.exact_annihilation:
        lines.append("constant_estimate,,")
        lines.append("fitted_slope,exact annihilation,")
        lines.append("fit_range,,")
    else:
        lines.append(f"constant_estimate,{report.constant_estimate!r},")
        lines.append(f"fitted_slope,{report.fitted_slope!r},")
        lines.append(f"fit_range,{report.fit_range[0]}:{report.fit_range[1]},")
    with open_text(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
