"""Serialization of families, paths, and curves.

The forest file is canonical JSON: a header with m and the atom sizes, then
the regions as {i, j, zeta} records sorted by (depth, i).  Depth is derived
and never serialized.  Parsing followed by serialization reproduces a
canonically ordered input byte for byte.

Paths travel as single-column CSV (``hypothesis_index``), p-values as
single-column CSV (``p_value``), and curves as CSV with one row per step.
All numeric rendering is locale-independent.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from typing import Sequence

from .curve import BoundCurve
from .errors import FormatError
from .forest import ForestFamily, RegionKey, build_family


def dump_forest(family: ForestFamily) -> str:
    """Canonical textual form of a family.

    The text is what ``json.dumps(doc, indent=2)`` gives for the document;
    it holds integers only, so it is written out directly.
    """
    rows = zip(family._left.tolist(), family._right.tolist(), family._zeta.tolist())
    sizes = ",\n    ".join(map(str, family.atom_sizes))
    if len(family):
        records = ",\n".join(
            [
                f'    {{\n      "i": {i},\n      "j": {j},\n'
                f'      "zeta": {zeta}\n    }}'
                for i, j, zeta in rows
            ]
        )
        regions = f"[\n{records}\n  ]"
    else:
        regions = "[]"
    return (
        f'{{\n  "m": {family.m},\n  "atom_sizes": [\n    {sizes}\n  ],\n'
        f'  "regions": {regions}\n}}\n'
    )


def parse_forest(text: str) -> ForestFamily:
    """Parse the canonical forest format, validating every invariant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("forest file must be a JSON object")
    try:
        m = doc["m"]
        atom_sizes = doc["atom_sizes"]
        regions = [(r["i"], r["j"], r["zeta"]) for r in doc["regions"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"forest file missing or malformed field: {exc}") from None
    return build_family(m, atom_sizes, regions)


def dump_path_csv(path_indices: Sequence[int]) -> str:
    lines = ["hypothesis_index"]
    lines.extend(str(int(i)) for i in path_indices)
    return "\n".join(lines) + "\n"


def parse_path_csv(text: str) -> list[int]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "hypothesis_index":
        raise FormatError("path CSV must start with a 'hypothesis_index' header")
    try:
        return [int(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad path entry: {exc}") from None


def parse_pvalues_csv(text: str) -> list[float]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "p_value":
        raise FormatError("p-value CSV must start with a 'p_value' header")
    try:
        return [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad p-value entry: {exc}") from None


def dump_pvalues_csv(pvalues: Sequence[float]) -> str:
    lines = ["p_value"]
    lines.extend(format(float(p), ".17g") for p in pvalues)
    return "\n".join(lines) + "\n"


def dump_curve_csv(path_indices: Sequence[int], curve: BoundCurve) -> str:
    """Per-step curve rows: t, the hypothesis added at t, V_t, V_t / t."""
    if len(curve) != len(path_indices) + 1:
        raise FormatError(
            f"curve has {len(curve)} values for {len(path_indices)} path steps"
        )
    # V_t / t is the exact quotient rounded half-even to 17 significant
    # digits (not the nearest binary double, whose rendering can differ in
    # the last digit).  Both operands are integers, so the ideal exponent is
    # 0 and the text is the same whether or not V_t / t is in lowest terms.
    values = curve.values
    lines = ["t,hypothesis_index,V_t,fdp_bound"]
    with localcontext() as ctx:
        ctx.prec = 17
        for t, idx in enumerate(path_indices, start=1):
            v = values[t]
            lines.append(f"{t},{int(idx)},{v},{Decimal(v) / t}")
    return "\n".join(lines) + "\n"


def dump_removed_csv(removed) -> str:
    """Pruning report: one row per removed region key."""
    lines = ["i,j"]
    for key in sorted(RegionKey(*k) for k in removed):
        lines.append(f"{key.i},{key.j}")
    return "\n".join(lines) + "\n"
