"""The plain geomwave/1 writer for samples and pyramids: one dict per entry,
built with ``tolist()``, handed whole to ``json.dump(indent=1)``.  The
differential tests require ``geomwave.io``'s streamed writer to give exactly
its text."""

import json

from geomwave.io import SCHEMA


def _entries(**columns):
    """One entry per row of the arrays."""
    rows = zip(*(a.tolist() for a in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def write_samples(seq, path):
    _dump(
        {
            "schema": SCHEMA,
            "manifold": seq.manifold.tag,
            "level": int(seq.level),
            "boundary": "periodic" if seq.periodic else "interior",
            "data": _entries(p=seq.points, v=seq.vectors),
        },
        path,
    )


def write_pyramid(pyr, path):
    _dump(
        {
            "schema": SCHEMA,
            "manifold": pyr.coarse.manifold.tag,
            "predictor": {"kind": pyr.provider.kind, "lambda": pyr.provider.lam},
            "rule": pyr.rule,
            "coarse_level": int(pyr.coarse.level),
            "coarse": _entries(p=pyr.coarse.points, v=pyr.coarse.vectors),
            "details": [_entries(base=d.bases, u0=d.u0, u1=d.u1) for d in pyr.details],
        },
        path,
    )
