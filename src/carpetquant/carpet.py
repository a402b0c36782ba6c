"""Grid carpets and the self-affine measures that live on them.

A carpet is an ``m x n`` grid (``2 <= m < n``) together with a set of
occupied cells ``(i, j)`` (column ``i``, row ``j``) and a strictly positive
probability on each occupied cell.  The cell maps

    f_ij(x, y) = ((x + i) / n, (y + j) / m)

contract the unit square onto the cells; the probabilities induce the
invariant measure that every other module works with.  ``derive_indices``
is the one cached table of what the other modules derive from a carpet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "CarpetError",
    "ConfigError",
    "DegenerateGrid",
    "ThinDigitSet",
    "BadProbabilities",
    "DuplicateCell",
    "CarpetSpec",
    "IndexSets",
    "make_spec",
    "load_config",
    "validate_spec",
    "derive_indices",
]

PROB_SUM_TOL = 1e-12


class CarpetError(ValueError):
    """Base class for carpet definition errors; message names the violated hypothesis."""


class ConfigError(ValueError):
    """The run configuration is unusable (bad carpet, ranges, or paths)."""


class DegenerateGrid(CarpetError):
    """Grid shape violates 2 <= m < n, or a cell lies outside the grid."""


class ThinDigitSet(CarpetError):
    """A projection of the occupied cells has fewer than 2 distinct digits."""


class BadProbabilities(CarpetError):
    """Cell probabilities are not strictly positive or do not sum to 1."""


class DuplicateCell(CarpetError):
    """The same cell appears more than once."""


@dataclass(frozen=True)
class CarpetSpec:
    """Validated carpet: grid shape and occupied cells with probabilities.

    ``entries`` is canonically sorted by (row, column) so that every
    downstream enumeration and CSV row order is reproducible.
    """

    m: int
    n: int
    entries: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True, eq=False)
class IndexSets:
    """Everything derived from a carpet, in one cached table (see derive_indices).

    ``cells`` ranks the occupied cells by (i, j); ``cell_i``, ``cell_j`` and
    ``log_p`` (log p_ij) hold their digits and logs by rank.  ``rows`` holds
    the occupied row digits ascending, ``q`` pairs each with its marginal
    mass q_j = sum_i p_ij, ``log_q`` its log, and ``up`` = log p_ij - log q_j
    per cell rank.  The logs are libm's ``math.log``, so every sum built from
    them is the float a word-by-word walk over the same logs gives.
    ``theta`` is the log-ratio log(m)/log(n) in (0, 1) that controls how many
    column digits an approximate square of a given depth carries.
    ``uniform_fibres`` records whether all rows hold the same number of cells.
    """

    cells: tuple[tuple[int, int], ...]
    cell_i: np.ndarray
    cell_j: np.ndarray
    log_p: np.ndarray
    rows: np.ndarray
    q: tuple[tuple[int, float], ...]
    log_q: np.ndarray
    up: np.ndarray
    theta: float
    uniform_fibres: bool


def _coerce_probability(value: object) -> float:
    # Accept floats, ints, decimal strings and ratio strings ("2/5").
    if isinstance(value, bool):
        raise BadProbabilities(f"probability must be a number, got {value!r}")
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return float(Fraction(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise BadProbabilities(f"cannot parse probability {value!r}") from exc
    raise BadProbabilities(f"probability must be a number or string, got {type(value).__name__}")


def make_spec(m: int, n: int, entries: Sequence[Sequence[object]]) -> CarpetSpec:
    """Build and validate a CarpetSpec from raw (i, j, p) triples."""
    if not isinstance(m, int) or not isinstance(n, int):
        raise DegenerateGrid(f"grid sides must be integers, got m={m!r}, n={n!r}")
    rows = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise CarpetError(f"entry must be (i, j, p), got {entry!r}")
        i, j, p = entry
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise CarpetError(f"cell digits must be integers, got ({i!r}, {j!r})")
        rows.append((i, j, _coerce_probability(p)))
    rows.sort(key=lambda e: (e[1], e[0]))
    spec = CarpetSpec(m=m, n=n, entries=tuple(rows))
    validate_spec(spec)
    return spec


def validate_spec(spec: CarpetSpec) -> CarpetSpec:
    """Check every standing hypothesis; raise a typed error naming the first violation."""
    m, n = spec.m, spec.n
    if not (2 <= m < n):
        raise DegenerateGrid(f"grid must satisfy 2 <= m < n, got m={m}, n={n}")
    seen: set[tuple[int, int]] = set()
    for i, j, p in spec.entries:
        if not (0 <= i < n and 0 <= j < m):
            raise DegenerateGrid(f"cell ({i}, {j}) lies outside the {m} x {n} grid")
        if (i, j) in seen:
            raise DuplicateCell(f"cell ({i}, {j}) appears more than once")
        seen.add((i, j))
        if not (p > 0.0):
            raise BadProbabilities(f"probability of cell ({i}, {j}) must be > 0, got {p}")
    cols = {i for i, _, _ in spec.entries}
    rowset = {j for _, j, _ in spec.entries}
    if len(cols) < 2:
        raise ThinDigitSet(f"occupied columns must cover >= 2 digits, got {sorted(cols)}")
    if len(rowset) < 2:
        raise ThinDigitSet(f"occupied rows must cover >= 2 digits, got {sorted(rowset)}")
    total = math.fsum(p for _, _, p in spec.entries)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise BadProbabilities(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
    return spec


def load_config(source: str | Mapping[str, object]) -> CarpetSpec:
    """Load a carpet from a JSON file path or an already-parsed mapping.

    Expected shape: {"m": int, "n": int, "entries": [[i, j, p], ...]} with p
    a number, a decimal string or a ratio string.  A file that is not UTF-8
    JSON raises CarpetError.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise CarpetError(f"{source} is not a UTF-8 JSON file: {exc}") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise CarpetError(f"config must be a JSON object, got {type(raw).__name__}")
    missing = [key for key in ("m", "n", "entries") if key not in raw]
    if missing:
        raise CarpetError(f"config is missing required fields: {', '.join(missing)}")
    m, n, entries = raw["m"], raw["n"], raw["entries"]
    if not isinstance(entries, (list, tuple)):
        raise CarpetError("config field 'entries' must be a list of [i, j, p] triples")
    return make_spec(m, n, entries)


@lru_cache(maxsize=None)
def derive_indices(spec: CarpetSpec) -> IndexSets:
    """Cell ranks, row marginals, their logs, theta and the fibre flag (cached; treat as read-only)."""
    ranked = sorted(spec.entries)
    cell_j = np.array([j for _, j, _ in ranked], dtype=np.int64)
    rows, per_row = np.unique(cell_j, return_counts=True)
    q = tuple((j, math.fsum(p for _, jj, p in spec.entries if jj == j)) for j in rows.tolist())
    log_p = np.array([math.log(p) for _, _, p in ranked])
    log_q = np.array([math.log(qj) for _, qj in q])
    return IndexSets(
        cells=tuple((i, j) for i, j, _ in ranked),
        cell_i=np.array([i for i, _, _ in ranked], dtype=np.int64),
        cell_j=cell_j,
        log_p=log_p,
        rows=rows,
        q=q,
        log_q=log_q,
        up=log_p - log_q[np.searchsorted(rows, cell_j)],
        theta=math.log(spec.m) / math.log(spec.n),
        uniform_fibres=len(set(per_row.tolist())) == 1,
    )
