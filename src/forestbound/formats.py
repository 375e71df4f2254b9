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
from operator import index, itemgetter
from typing import Sequence

import numpy as np

from .bounds import _index_array
from .curve import BoundCurve
from .errors import FormatError
from .forest import ForestFamily, _region_key
from .zeta import _check_pvalues


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
    except RecursionError:
        raise FormatError("forest file nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise FormatError("forest file must be a JSON object")
    try:
        m = doc["m"]
        atom_sizes = doc["atom_sizes"]
        columns = _region_fields(doc["regions"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"forest file missing or malformed field: {exc}") from None
    return ForestFamily._from_columns(m, atom_sizes, *columns)


_FIELDS = ("i", "j", "zeta")


def _region_fields(regions) -> list[list]:
    """The fields i, j and zeta of every region, one list per field."""
    if isinstance(regions, (dict, str)):  # iterable, but no JSON array
        raise TypeError("'regions' must be a JSON array")
    try:
        return [list(map(itemgetter(field), regions)) for field in _FIELDS]
    except (KeyError, TypeError):
        # Raise the fault met first when reading region by region.
        list(map(itemgetter(*_FIELDS), regions))
        raise


def dump_path_csv(path_indices: Sequence[int]) -> str:
    lines = ["hypothesis_index"]
    lines.extend(map(str, _index_column(path_indices).tolist()))
    return "\n".join(lines) + "\n"


def _csv_entries(text: str, header: str, what: str) -> list[str]:
    """The non-blank lines of a one-column CSV after its header, stripped.

    ``int`` and ``float`` also read underscores (``1_0`` as 10) and non-ASCII
    digits, so an entry holding either is refused; one check covers the
    whole body.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise FormatError(f"{what} CSV must start with a '{header}' header")
    entries = lines[1:]
    body = "".join(entries)
    if "_" in body or not body.isascii():
        bad = next(e for e in entries if "_" in e or not e.isascii())
        raise FormatError(
            f"bad {what} entry: {bad!r} holds an underscore or a non-ASCII character"
        )
    return entries


def parse_path_csv(text: str) -> list[int]:
    entries = _csv_entries(text, "hypothesis_index", "path")
    try:
        return [int(ln) for ln in entries]
    except ValueError as exc:
        raise FormatError(f"bad path entry: {exc}") from None


def parse_pvalues_csv(text: str) -> list[float]:
    entries = _csv_entries(text, "p_value", "p-value")
    try:
        return [float(ln) for ln in entries]
    except ValueError as exc:
        raise FormatError(f"bad p-value entry: {exc}") from None


def dump_pvalues_csv(pvalues: Sequence[float]) -> str:
    """One row per p-value, each checked as every p-value entry checks it
    (finite, in [0, 1], no boolean)."""
    if not isinstance(pvalues, (Sequence, np.ndarray)):
        pvalues = list(pvalues)  # one-shot iterables
    checked = _check_pvalues(len(pvalues), pvalues)
    lines = ["p_value", *(format(p, ".17g") for p in checked.tolist())]
    return "\n".join(lines) + "\n"


def dump_curve_csv(path_indices: Sequence[int], curve: BoundCurve) -> str:
    """Per-step curve rows: t, the hypothesis added at t, V_t, V_t / t.

    V_t / t is the exact quotient rounded half-even to 17 significant digits
    (not the nearest binary double, whose rendering can differ in the last
    digit), written as ``str`` writes the ``decimal`` quotient of V_t by t at
    that precision: trailing zeros are dropped only from an exact quotient,
    and exponent form starts below 1e-6.  The path's entries must be integers
    of at least 1 and every V_t must lie in 0..t; anything else raises
    :class:`FormatError`.  Rows are rendered as arrays, a block at a time.
    """
    idx = _index_column(path_indices)
    values = curve._array
    if len(values) != len(idx) + 1:
        raise FormatError(f"curve has {len(values)} values for {len(idx)} path steps")
    if values[0] != 0:
        raise FormatError(f"V_0 = {values[0]} outside 0..0")
    parts = ["t,hypothesis_index,V_t,fdp_bound\n"]
    for lo in range(0, len(idx), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(idx))
        t = np.arange(lo + 1, hi + 1)
        v = values[lo + 1 : hi + 1]
        bad = (v < 0) | (v > t)
        if bad.any():
            k = int(bad.argmax())
            raise FormatError(f"V_{t[k]} = {v[k]} outside 0..{t[k]}")
        parts.append(_csv_rows((t, idx[lo:hi], v), v, t))
    return "".join(parts)


def dump_removed_csv(removed) -> str:
    """Pruning report: one row per removed region key, sorted.  A key that
    is not two integers (no bool) with 1 <= i <= j raises FormatError."""
    keys = []
    for k in removed:
        key = _region_key(k)
        if key is None or not 1 <= key.i <= key.j:
            raise FormatError(f"removed region {k!r} is not an atom interval (i, j)")
        keys.append(key)
    lines = ["i,j"]
    lines.extend(f"{i},{j}" for i, j in sorted(keys))
    return "\n".join(lines) + "\n"


# -- rendering the curve CSV ------------------------------------------------

_INT64_MAX = np.iinfo(np.int64).max
_POW10 = 10 ** np.arange(19)  # every power of ten an int64 holds
_BLOCK_ROWS = 1 << 13  # rows rendered at once, which bounds the temporaries


def _index_column(path: Sequence[int]) -> np.ndarray:
    """The path as an int64 array of hypothesis indices (integers >= 1),
    repeats allowed."""
    idx = _index_array(_INT64_MAX, path)
    if idx is not None:
        return idx
    try:
        entries = iter(path)
    except TypeError:  # no sequence at all, such as a 0-d array
        raise FormatError(
            "path must be a flat sequence of hypothesis indices"
        ) from None
    # An integer is what operator.index reads, as for _index_array's
    # conversion and validate_path, but no boolean.
    for x in entries:
        try:
            ok = not isinstance(x, (bool, np.bool_)) and 1 <= index(x) <= _INT64_MAX
        except TypeError:
            ok = False
        if not ok:
            raise FormatError(f"path entry {x!r} is not a hypothesis index")
    if not isinstance(path, (Sequence, np.ndarray)):  # the scan consumed it
        raise FormatError("path must be a flat sequence of hypothesis indices")
    # The entries just checked, e.g. of an object array or of bytes, which
    # np.array would read as one value.
    return np.fromiter(map(index, path), np.int64, len(path))


def _ndigits(x: np.ndarray) -> np.ndarray:
    """Decimal digits of each x >= 1."""
    return _POW10.searchsorted(x, side="right")


def _csv_rows(columns, v: np.ndarray, t: np.ndarray) -> str:
    """One CSV line per row: the integer ``columns`` (each >= 0), then V/t.

    ``v`` and ``t`` are int64 arrays with 0 <= v <= t and 1 <= t < 2**59.
    Each field is written into 4-byte words of one uint32 matrix, with zero
    bytes as padding; the line is the matrix row's nonzero bytes.
    """
    widths = [-(-len(str(int(x.max()))) // 4) for x in columns]
    words = np.zeros((len(t), sum(widths) + len(columns) + 9), np.uint32)
    at = 0
    for x, width in zip(columns, widths):
        _put_int(words[:, at : at + width], x)
        words[:, at + width] = _COMMA
        at += width + 1
    _put_fraction(words[:, at : at + 8], v, t)
    words[:, -1] = _NEWLINE
    text = words.view(np.uint8)
    return text[text != 0].tobytes().decode("ascii")


def _put_int(out: np.ndarray, x: np.ndarray) -> None:
    """Write each x >= 0 in decimal into the 4-digit words of ``out``'s rows."""
    last = out.shape[1] - 1
    for j in range(last + 1):
        q = x // _POW10[4 * (last - j)]
        word = q - q // 10000 * 10000
        # A word is "0042" when digits come before it, else "42", or "" for
        # q = 0; the last word writes 0 as "0".
        word += (q >= 10000) * 10000 + (j == last) * 20000
        out[:, j] = _INT_WORDS[word]


def _put_fraction(out: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
    """Write V/t at 17 significant digits into 8 words of ``out``'s rows.

    Long division: v is first scaled by 10**lead, the count of zeros between
    the point and the first significant digit, to a remainder below t; then
    17 digits come k at a time, with t * 10**k within int64.  The last
    remainder r rounds half-even: up when 2r > t, or 2r = t and the 17th
    digit is odd.  A row is "0" when V = 0 and "1" when V = t.
    """
    mid = (v > 0) & (v < t)
    num = np.where(mid, v, 1)
    den = np.where(mid, t, 2)
    shift = _ndigits(den) - _ndigits(num)
    num *= _POW10[shift]  # below 10 ** digits(den) <= 10 * den
    over = num >= den
    lead = shift - over
    num[over] //= 10  # now den / 10 <= num < den
    step = int(_ndigits(_INT64_MAX // int(den.max()))) - 1
    coef = np.zeros_like(num)
    done = 0
    while done < 17:
        k = min(step, 17 - done)
        num *= _POW10[k]
        digits, num = np.divmod(num, den)
        coef *= _POW10[k]
        coef += digits
        done += k
    twice = num * 2
    coef += (twice > den) | ((twice == den) & (coef & 1 == 1))
    exact = num == 0
    carry = coef == 10**17  # rounded up to the next power of ten
    coef[carry] = 10**16
    lead -= carry
    ends = ~mid  # the rows "0" and "1"
    coef[ends] = np.where(v[ends] == 0, 0, 10**16)
    lead[ends] = -1
    exact |= ends
    # coef holds 17 digits (0 or 10**16 for the rows "0" and "1"): the
    # first, then 16 more in four words, whose trailing zeros go when exact.
    first, rest = np.divmod(coef, 10**16)
    strip = exact
    for j in range(6, 2, -1):
        word = rest % 10000
        rest //= 10000
        out[:, j] = _DIGIT_WORDS[word + strip * 10000]
        strip = strip & (word == 0)
    lead += 1
    out[:, 0] = _PREFIX[lead, 0]
    out[:, 1] = _PREFIX[lead, 1]
    out[:, 2] = _FIRST[first + (_DOTTED[lead] & ~strip) * 10]
    out[:, 7] = _SUFFIX[lead]


def _words(text: list[str], width: int) -> np.ndarray:
    """Each string's ASCII bytes, zero-padded to ``width``, as uint32 words."""
    data = b"".join(s.encode("ascii").ljust(width, b"\0") for s in text)
    return np.frombuffer(data, np.uint8).view(np.uint32).reshape(len(text), -1)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The words of 0..9999, indexed as :func:`_put_int` and
    :func:`_put_fraction` index them."""
    digits = np.arange(10000)[:, None] // _POW10[[3, 2, 1, 0]] % 10
    ascii_ = (digits + ord("0")).astype(np.uint8)
    zero = digits == 0
    leading = np.logical_and.accumulate(zero, axis=1)
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    padded = ascii_.view(np.uint32)[:, 0]  # "0042"
    short = np.where(leading, 0, ascii_).view(np.uint32)[:, 0]  # "42", ""
    stripped = np.where(trailing, 0, ascii_).view(np.uint32)[:, 0]  # "42", ""
    last = short.copy()
    last[0] = _words(["0"], 4)[0, 0]  # the last word of the integer 0
    return (
        np.concatenate((short, padded, last, padded)),
        np.concatenate((padded, stripped)),
    )


_INT_WORDS, _DIGIT_WORDS = _digit_tables()
_COMMA = _words([","], 4)[0, 0]
_NEWLINE = _words(["\n"], 4)[0, 0]
# Indexed by lead + 1: lead is -1 for "1" and "1.0000000000000000", 0..5 for
# "0.000ddd", 6 and more for exponent form (Decimal's from an exponent of -7).
_LEADS = range(-1, 19)
_PREFIX = _words(["0." + "0" * z if 0 <= z < 6 else "" for z in _LEADS], 8)
_SUFFIX = _words([f"E-{z + 1}" if z >= 6 else "" for z in _LEADS], 4)[:, 0]
_DOTTED = np.array([z < 0 or z >= 6 for z in _LEADS])
_FIRST = _words([f"{d}{dot}" for dot in ("", ".") for d in range(10)], 4)[:, 0]
