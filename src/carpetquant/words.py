"""Location codes and approximate squares.

A word of order k is a pair (a, b): a holds ell(k) full cells (i, j), b holds
k - ell(k) trailing row digits, where ell(k) = floor(k * log m / log n).  The
word codes an approximate square of the carpet: a rectangle of width n^-ell(k)
and height m^-k, i.e. as close to square as the grid allows.  Refinement
(children) adds one row digit and, when ell increments, upgrades the oldest
row digit to a full cell; flatten is the inverse step.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .carpet import CarpetSpec, cell_probabilities, derive_indices

__all__ = [
    "BadWord",
    "EmptyWord",
    "Word",
    "ROOT",
    "ApproxSquare",
    "Relation",
    "order",
    "ell",
    "ell_steps",
    "step_table",
    "validate_word",
    "children",
    "flatten",
    "log_measure",
    "measure",
    "log_weight",
    "weight",
    "log_energy",
    "energy",
    "rect",
    "compare",
    "encode_word",
    "decode_word",
    "all_words",
    "log_tables",
]


class BadWord(ValueError):
    """Word does not satisfy the location-code shape constraints."""


class EmptyWord(BadWord):
    """The order-0 root has no parent and no digits to flatten."""


class Word(NamedTuple):
    """Location code: full cells in ``a``, trailing row digits in ``b``."""

    a: tuple[tuple[int, int], ...]
    b: tuple[int, ...]


ROOT = Word((), ())


def order(w: Word) -> int:
    return len(w.a) + len(w.b)


# ell(k) must be exact: for grids whose side logs are rationally related
# (m=2, n=8 say) the float floor of k*theta is off by one at exact multiples.
# We keep, per grid, the largest t with n^t <= m^k using integer powers.
_ELL_STATE: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}


def _ell_table(m: int, n: int, k: int) -> list[int]:
    state = _ELL_STATE.get((m, n))
    if state is None:
        state = ([0], [n], [1])  # ell values, n^(ell[-1]+1), m^(len-1)
        _ELL_STATE[(m, n)] = state
    ells, npow, mpow = state
    while len(ells) <= k:
        mpow[0] *= m
        t = ells[-1]
        if npow[0] <= mpow[0]:
            t += 1
            npow[0] *= n
        ells.append(t)
    return ells


def ell(spec: CarpetSpec, k: int) -> int:
    """Number of full-cell digits of an order-k word: floor(k * log m / log n)."""
    if k < 0:
        raise BadWord(f"order must be >= 0, got {k}")
    return _ell_table(spec.m, spec.n, k)[k]


def validate_word(spec: CarpetSpec, w: Word) -> Word:
    """Check the location-code shape and digit ranges; return the word."""
    k = order(w)
    want = ell(spec, k)
    if len(w.a) != want:
        raise BadWord(f"order-{k} word must carry {want} full cells, got {len(w.a)}")
    cells = cell_probabilities(spec)
    idx = derive_indices(spec)
    g_y = set(idx.g_y)
    for cell in w.a:
        if cell not in cells:
            raise BadWord(f"cell {cell} is not occupied")
    for j in w.b:
        if j not in g_y:
            raise BadWord(f"row digit {j} is not occupied")
    return w


def ell_steps(spec: CarpetSpec, k: int) -> bool:
    """True when refining an order-k word upgrades its oldest row digit: ell(k+1) > ell(k)."""
    return ell(spec, k + 1) != ell(spec, k)


class StepTable(NamedTuple):
    rows: tuple[tuple[int, float], ...]
    upgrades: dict[int, tuple[tuple[int, float], ...]]


@lru_cache(maxsize=None)
def step_table(spec: CarpetSpec) -> StepTable:
    """The digits one refinement step adds, with their log-measure increments.

    ``rows`` pairs each occupied row digit j with log q_j; ``upgrades`` maps a
    head row digit j to its cells (i, j), each with log p_ij - log q_j.  Both
    run in the digit order of ``children`` (cached; treat as read-only).
    """
    log_p, log_q = log_tables(spec)
    idx = derive_indices(spec)
    return StepTable(
        rows=tuple((j, log_q[j]) for j in idx.g_y),
        upgrades={
            j: tuple((i, log_p[(i, j)] - log_q[j]) for i in idx.columns_of(j))
            for j in idx.g_y
        },
    )


def children(spec: CarpetSpec, w: Word) -> tuple[Word, ...]:
    """One refinement step, in deterministic digit order.

    If ell stays flat the word gains one trailing row digit; otherwise the
    oldest row digit is upgraded to a full cell (one child per occupied
    column of that row) and a fresh trailing row digit is appended.
    """
    rows, upgrades = step_table(spec)
    if not ell_steps(spec, order(w)):
        return tuple(Word(w.a, w.b + (j,)) for j, _ in rows)
    j_head, tail = w.b[0], w.b[1:]
    out = []
    for i, _ in upgrades[j_head]:
        a = w.a + ((i, j_head),)
        for j, _ in rows:
            out.append(Word(a, tail + (j,)))
    return tuple(out)


def flatten(spec: CarpetSpec, w: Word) -> Word:
    """The parent word: inverse of the refinement step."""
    k = order(w)
    if k == 0:
        raise EmptyWord("the root word has no parent")
    if not ell_steps(spec, k - 1):
        return Word(w.a, w.b[:-1])
    last_cell = w.a[-1]
    return Word(w.a[:-1], (last_cell[1],) + w.b[:-1])


@lru_cache(maxsize=None)
def log_tables(spec: CarpetSpec) -> tuple[dict[tuple[int, int], float], dict[int, float]]:
    """Per-cell and per-row log probabilities (cached; treat as read-only)."""
    cells = {cell: math.log(p) for cell, p in cell_probabilities(spec).items()}
    rows = {j: math.log(qj) for j, qj in derive_indices(spec).q}
    return cells, rows


def log_measure(spec: CarpetSpec, w: Word) -> float:
    """log of the cylinder mass: cells contribute log p_ij, row digits log q_j."""
    log_p, log_q = log_tables(spec)
    return math.fsum(log_p[cell] for cell in w.a) + math.fsum(log_q[j] for j in w.b)


def measure(spec: CarpetSpec, w: Word) -> float:
    return math.exp(log_measure(spec, w))


def log_weight(spec: CarpetSpec, r: float, w: Word) -> float:
    """log of the order-r weight mu_w * m^(-|w| r)."""
    return log_measure(spec, w) - order(w) * r * math.log(spec.m)


def weight(spec: CarpetSpec, r: float, w: Word) -> float:
    return math.exp(log_weight(spec, r, w))


def log_energy(spec: CarpetSpec, consts, w: Word) -> float:
    """log of the energy (weight raised to the moment exponent t_r)."""
    return consts.t_r * log_weight(spec, consts.r, w)


def energy(spec: CarpetSpec, consts, w: Word) -> float:
    return math.exp(log_energy(spec, consts, w))


@dataclass(frozen=True)
class ApproxSquare:
    """Closed dyadic-style rectangle [p/n^ell, (p+1)/n^ell] x [q/m^k, (q+1)/m^k].

    All containment and overlap decisions are exact integer arithmetic; no
    floating point enters a geometric comparison.
    """

    m: int
    n: int
    k: int
    ell: int
    p: int
    q: int

    def x_interval(self) -> tuple[Fraction, Fraction]:
        d = self.n**self.ell
        return Fraction(self.p, d), Fraction(self.p + 1, d)

    def y_interval(self) -> tuple[Fraction, Fraction]:
        d = self.m**self.k
        return Fraction(self.q, d), Fraction(self.q + 1, d)

    def center(self) -> tuple[float, float]:
        return (
            float(Fraction(2 * self.p + 1, 2 * self.n**self.ell)),
            float(Fraction(2 * self.q + 1, 2 * self.m**self.k)),
        )

    def width(self) -> float:
        return float(Fraction(1, self.n**self.ell))

    def height(self) -> float:
        return float(Fraction(1, self.m**self.k))

    def diameter(self) -> float:
        return math.hypot(self.width(), self.height())

    def contains(self, other: "ApproxSquare") -> bool:
        """True when this rectangle contains the other (closed, exact)."""
        xs, xo = self.n**other.ell, other.n**self.ell
        if not (self.p * xs <= other.p * xo and (other.p + 1) * xo <= (self.p + 1) * xs):
            return False
        ys, yo = self.m**other.k, other.m**self.k
        return self.q * ys <= other.q * yo and (other.q + 1) * yo <= (self.q + 1) * ys

    def overlaps_interior(self, other: "ApproxSquare") -> bool:
        """True when the open interiors intersect (exact)."""
        xs, xo = self.n**other.ell, other.n**self.ell
        if not (self.p * xs < (other.p + 1) * xo and other.p * xo < (self.p + 1) * xs):
            return False
        ys, yo = self.m**other.k, other.m**self.k
        return self.q * ys < (other.q + 1) * yo and other.q * yo < (self.q + 1) * ys


def rect(spec: CarpetSpec, w: Word) -> ApproxSquare:
    """The approximate square coded by a word.

    The column address collects the cells' column digits base n; the row
    address collects every row digit (cells first, then the trailing block)
    base m.
    """
    k = order(w)
    lk = ell(spec, k)
    p = 0
    for i, _ in w.a:
        p = p * spec.n + i
    q = 0
    for _, j in w.a:
        q = q * spec.m + j
    for j in w.b:
        q = q * spec.m + j
    return ApproxSquare(m=spec.m, n=spec.n, k=k, ell=lk, p=p, q=q)


class Relation(enum.Enum):
    EQUAL = "equal"
    PRECEDES = "precedes"  # first word's rectangle strictly contains the second's
    SUCCEEDS = "succeeds"
    INCOMPARABLE = "incomparable"


def compare(spec: CarpetSpec, w1: Word, w2: Word) -> Relation:
    """Exact containment order of the coded rectangles (nested or disjoint)."""
    if w1 == w2:
        return Relation.EQUAL
    r1, r2 = rect(spec, w1), rect(spec, w2)
    if r1.contains(r2):
        return Relation.PRECEDES
    if r2.contains(r1):
        return Relation.SUCCEEDS
    return Relation.INCOMPARABLE


_CELL_RE = re.compile(r"\((\d+),(\d+)\)")


def encode_word(w: Word) -> str:
    """Canonical text form ``a:(i,j)(i,j)|b:j j`` used in CSV witnesses."""
    a = "".join(f"({i},{j})" for i, j in w.a)
    b = " ".join(str(j) for j in w.b)
    return f"a:{a}|b:{b}"


def decode_word(text: str) -> Word:
    head, _, tail = text.partition("|")
    if not head.startswith("a:") or not tail.startswith("b:"):
        raise BadWord(f"cannot parse word text {text!r}")
    a = tuple((int(i), int(j)) for i, j in _CELL_RE.findall(head[2:]))
    b_body = tail[2:].strip()
    b = tuple(int(tok) for tok in b_body.split()) if b_body else ()
    return Word(a, b)


def all_words(spec: CarpetSpec, k: int) -> Iterator[Word]:
    """Every word of order k, in deterministic order (breadth-first refinement)."""
    from .codes import all_codes, decode  # codes builds on this module

    return iter(decode(spec, all_codes(spec, k)))
