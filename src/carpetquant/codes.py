"""Integer word codes: the word format, whole levels at a time as numpy arrays.

A word of order k is a pair (a, b): a holds ell(k) full cells (i, j), b holds
k - ell(k) trailing row digits, where ell(k) = floor(k * log m / log n).  The
word codes an approximate square of the carpet: a rectangle of width n^-ell(k)
and height m^-k, i.e. as close to square as the grid allows.  Refinement adds
one row digit and, when ell increments, upgrades the oldest row digit to a
full cell.

The word is coded by two integers.  A reads the ell(k) cells of a as base-G
digits, G being the number of occupied cells ranked by (i, j); B reads the
k - ell(k) row digits of b in base m.  Within one order, sorting by (A, B) is
the canonical (a, b) order, and refinement, flattening and prefixes are
integer arithmetic on whole arrays.  Tuples (``Word``) are built only by
``decode``, to name words.

Codes sit in int64 arrays while G^ell(k) m^(k - ell(k)) stays below
INT_LIMIT; past it the same code runs on dtype=object arrays of Python ints.
Every per-word quantity the certificates use is a correctly rounded sum over
the word's digits (math.fsum of per-digit logs), so it depends only on how
often each cell and row digit occurs: ``WordCodes.log_sum`` takes it once per
distinct count vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .carpet import CarpetSpec, derive_indices

__all__ = [
    "INT_LIMIT",
    "BadWord",
    "Word",
    "Block",
    "WordCodes",
    "ell",
    "ell_steps",
    "encode_word",
    "code_dtype",
    "expand",
    "flatten",
    "prefix",
    "keys",
    "lookup",
    "decode",
    "all_codes",
    "centers",
]

# Largest code space held in int64 arrays; beyond it blocks are dtype=object.
INT_LIMIT = 2**62
# _count_classes reads a code's digits in chunks, as many per chunk as keep
# the chunk's lookup table within this many entries.
_KEY_TABLE = 2**16


class BadWord(ValueError):
    """Word order out of range."""


class Word(NamedTuple):
    """Location code: full cells in ``a``, trailing row digits in ``b``."""

    a: tuple[tuple[int, int], ...]
    b: tuple[int, ...]


def encode_word(w: Word) -> str:
    """Canonical text form ``a:(i,j)(i,j)|b:j j`` used in CSV witnesses."""
    a = "".join(f"({i},{j})" for i, j in w.a)
    b = " ".join(str(j) for j in w.b)
    return f"a:{a}|b:{b}"


@lru_cache(maxsize=None)
def _ell(m: int, n: int, k: int) -> int:
    # The largest t with n^t <= m^k, in integers: for grids whose side logs
    # are rationally related (m=2, n=8 say) the float floor of k*theta is
    # off by one at exact multiples.
    x, t = m ** int(k), 0
    while x >= n:
        x, t = x // n, t + 1
    return t


def ell(spec: CarpetSpec, k: int) -> int:
    """Number of full-cell digits of an order-k word: floor(k * log m / log n)."""
    if k < 0:
        raise BadWord(f"order must be >= 0, got {k}")
    return _ell(spec.m, spec.n, k)


def ell_steps(spec: CarpetSpec, k: int) -> bool:
    """True when refining an order-k word upgrades its oldest row digit: ell(k+1) > ell(k)."""
    return ell(spec, k + 1) != ell(spec, k)


class Block(NamedTuple):
    """Words of one order k: cell codes ``a`` and row codes ``b``, entry by entry."""

    k: int
    a: np.ndarray
    b: np.ndarray

    def take(self, idx) -> "Block":
        return Block(self.k, self.a[idx], self.b[idx])


def code_dtype(spec: CarpetSpec, k: int):
    lk = ell(spec, k)
    small = len(spec.entries) ** lk * spec.m ** (k - lk) < INT_LIMIT
    return np.int64 if small else object


def _cast(spec: CarpetSpec, blk: Block, k: int) -> Block:
    dt = code_dtype(spec, k)
    return Block(blk.k, blk.a.astype(dt, copy=False), blk.b.astype(dt, copy=False))


def root() -> Block:
    return Block(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))


def expand(spec: CarpetSpec, blk: Block):
    """Children of every word, parent by parent.

    A parent's children run over the upgraded cell (by rank) on an upgrade
    step, then over the appended row digit, ascending.  Returns (children,
    parent index, upgraded cell rank or None on a flat step, index of the
    appended row digit in the occupied rows).
    """
    t = derive_indices(spec)
    m, nrows = spec.m, len(t.rows)
    blk = _cast(spec, blk, blk.k + 1)
    if not ell_steps(spec, blk.k):
        parent = np.repeat(np.arange(len(blk.a)), nrows)
        row = np.tile(np.arange(nrows), len(blk.a))
        return Block(blk.k + 1, blk.a[parent], blk.b[parent] * m + t.rows[row]), parent, None, row
    unit = m ** (blk.k - ell(spec, blk.k) - 1)
    head = (blk.b // unit).astype(np.int64)
    # every (parent, cell) whose cell upgrades the parent's head row, in rank order
    parent, cell = np.nonzero(t.cell_j[None, :] == head[:, None])
    parent, cell = np.repeat(parent, nrows), np.repeat(cell, nrows)
    row = np.tile(np.arange(nrows), len(parent) // nrows)
    a = blk.a[parent] * len(t.cells) + cell
    b = (blk.b % unit)[parent] * m + t.rows[row]
    return Block(blk.k + 1, a, b), parent, cell, row


def flatten(spec: CarpetSpec, blk: Block) -> Block:
    """Parents of every word (the inverse refinement step)."""
    k, m = blk.k, spec.m
    if not ell_steps(spec, k - 1):
        return _cast(spec, Block(k - 1, blk.a, blk.b // m), k - 1)
    t = derive_indices(spec)
    g = len(t.cells)
    last = (blk.a % g).astype(np.int64)
    head = t.cell_j[last].astype(blk.b.dtype) * m ** (k - ell(spec, k) - 1)
    return _cast(spec, Block(k - 1, blk.a // g, head + blk.b // m), k - 1)


def prefix(spec: CarpetSpec, blk: Block, k: int) -> Block | None:
    """The order-k prefixes (a[:ell(k)], b[:k - ell(k)]), or None when b is too short."""
    lk, lt = ell(spec, k), ell(spec, blk.k)
    drop_b = (blk.k - lt) - (k - lk)
    if drop_b < 0:
        return None
    g = len(derive_indices(spec).cells)
    return _cast(spec, Block(k, blk.a // g ** (lt - lk), blk.b // spec.m**drop_b), k)


def keys(spec: CarpetSpec, blk: Block) -> np.ndarray:
    """One integer per word, increasing in the canonical (a, b) order."""
    return blk.a * spec.m ** (blk.k - ell(spec, blk.k)) + blk.b


def lookup(sorted_keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each wanted key in sorted_keys, or -1 where it is absent."""
    at = np.searchsorted(sorted_keys, wanted)
    inside = at < len(sorted_keys)
    hit = np.zeros(len(wanted), dtype=bool)
    hit[inside] = sorted_keys[at[inside]] == wanted[inside]
    return np.where(hit, at, -1)


def canonical(blk: Block) -> np.ndarray:
    """Permutation that sorts a block by (a, b)."""
    return np.lexsort((blk.b, blk.a))


def _digits(values: np.ndarray, base: int, count: int) -> np.ndarray:
    """Base-``base`` digits, most significant first, as an int64 matrix."""
    out = np.empty((len(values), count), dtype=np.int64)
    for col in range(count - 1, -1, -1):
        out[:, col] = (values % base).astype(np.int64)
        values = values // base
    return out


def decode(spec: CarpetSpec, blk: Block, cells: int | None = None) -> list[Word]:
    """The words of a block; ``cells`` overrides the ell(k) cells an order-k word carries."""
    t = derive_indices(spec)
    lk = ell(spec, blk.k) if cells is None else cells
    a_rows = _digits(blk.a, len(t.cells), lk).tolist()
    b_rows = _digits(blk.b, spec.m, blk.k - lk).tolist()
    cells = t.cells
    return [Word(tuple(cells[c] for c in a), tuple(b)) for a, b in zip(a_rows, b_rows)]


def all_codes(spec: CarpetSpec, k: int) -> Block:
    """Every order-k word, refined level by level from the root."""
    blk = root()
    for _ in range(k):
        blk = expand(spec, blk)[0]
    return blk


def _add_digit_keys(
    key: np.ndarray, values: np.ndarray, base: int, count: int, weight: np.ndarray
) -> np.ndarray:
    """key plus the weights of the ``count`` base-``base`` digits of each value.

    The digits go chunk by chunk, lowest chunk first, one lookup per chunk
    in a table of at most _KEY_TABLE entries: entry v of sums[L - 1] sums
    ``weight`` over the L digits of v, zeros included.  So a last, shorter
    chunk is read with the table of its own length; a longer one would count
    its missing digits as zeros.
    """
    sums = [weight]
    while len(sums) < count and base ** (len(sums) + 1) <= _KEY_TABLE:
        sums.append((sums[-1][:, None] + weight).reshape(-1))
    while count > 0:
        size = min(len(sums), count)
        chunk = (values % base**size).astype(np.int64, copy=False)
        key = key + sums[size - 1][chunk]
        values = values // base**size
        count -= size
    return key


def _count_classes(spec: CarpetSpec, blk: Block) -> tuple[np.ndarray, list[list[int]]]:
    """Words grouped by digit counts: class of each word, and each class's counts.

    A count vector holds how often each cell rank, then each occupied row,
    occurs.  The class key adds base^c for every occurrence of digit c; no
    digit occurs more than k times, so base = k + 1 keeps the counts apart.
    The keys are exact integer sums, so their order of summation (chunk by
    chunk, see _add_digit_keys) does not change them.
    """
    t = derive_indices(spec)
    g, lk, base = len(t.cells), ell(spec, blk.k), blk.k + 1
    width = g + len(t.rows)
    dtype = np.int64 if base**width < INT_LIMIT else object
    weight = np.array([base**c for c in range(width)], dtype=dtype)
    row_rank = np.zeros(spec.m, dtype=np.int64)
    row_rank[t.rows] = np.arange(len(t.rows))
    key = np.zeros(len(blk.a), dtype=dtype)
    key = _add_digit_keys(key, blk.a, g, lk, weight[:g])
    key = _add_digit_keys(key, blk.b, spec.m, blk.k - lk, weight[g + row_rank])
    uniq, inverse = np.unique(key, return_inverse=True)
    counts = [[u // base**c % base for c in range(width)] for u in uniq.tolist()]
    return inverse.reshape(-1), counts


def _fsum_counts(terms: list[float], counts: list[int]) -> float:
    return math.fsum([v for v, c in zip(terms, counts) for _ in range(c)])


def centers(spec: CarpetSpec, blk: Block) -> list[tuple[float, float]]:
    """Centres of the approximate squares, each coordinate correctly rounded.

    The square of an order-k word is [p, p + 1] / n^ell(k) by [q, q + 1] / m^k,
    p reading the cells' columns base n and q every row digit (cells first)
    base m.  (2p + 1) / (2 n^ell) is Python int true division, which is
    correctly rounded, so it equals float(Fraction(2p + 1, 2 n^ell)).
    """
    t = derive_indices(spec)
    lk = ell(spec, blk.k)
    n, m = spec.n, spec.m
    dtype = np.int64 if max(n**lk, m**blk.k) < INT_LIMIT else object
    p = np.zeros(len(blk.a), dtype=dtype)
    q = np.zeros(len(blk.a), dtype=dtype)
    for col in _digits(blk.a, len(t.cells), lk).T:
        p = p * n + t.cell_i[col]
        q = q * m + t.cell_j[col]
    q = q * m ** (blk.k - lk) + blk.b.astype(dtype)
    dx, dy = 2 * n**lk, 2 * m**blk.k
    return [((2 * x + 1) / dx, (2 * y + 1) / dy) for x, y in zip(p.tolist(), q.tolist())]


@dataclass(frozen=True, eq=False)
class WordCodes:
    """A sequence of words held as code blocks, one block per order.

    ``pos[i]`` gives each entry of ``blocks[i]`` its index in the sequence.
    Blocks run in ascending word order; a canonical sequence (see
    ``from_blocks``) has each block sorted and numbers its entries consecutively.
    """

    spec: CarpetSpec
    blocks: tuple[Block, ...]
    pos: tuple[np.ndarray, ...]

    @classmethod
    def from_blocks(
        cls, spec: CarpetSpec, blocks: list[Block]
    ) -> tuple["WordCodes", list[np.ndarray]]:
        """The canonical sequence of the blocks' words, and each block's sort permutation."""
        perms = [canonical(blk) for blk in blocks]
        pos, start = [], 0
        for blk in blocks:
            pos.append(np.arange(start, start + len(blk.a)))
            start += len(blk.a)
        sorted_blocks = tuple(blk.take(p) for blk, p in zip(blocks, perms))
        return cls(spec, sorted_blocks, tuple(pos)), perms

    def __len__(self) -> int:
        return sum(len(p) for p in self.pos)

    def orders(self) -> np.ndarray:
        """Word order of every entry, in sequence order."""
        return self.gather([np.full(len(blk.a), blk.k) for blk in self.blocks])

    def gather(self, per_block: list[np.ndarray]) -> np.ndarray:
        """Per-block arrays put into sequence order."""
        out = np.empty(len(self), dtype=per_block[0].dtype if per_block else float)
        for p, values in zip(self.pos, per_block):
            out[p] = values
        return out

    @cached_property
    def _classes(self) -> list[tuple[np.ndarray, list[list[int]]]]:
        return [_count_classes(self.spec, blk) for blk in self.blocks]

    def log_sum(self, cell_logs: np.ndarray, row_logs: np.ndarray) -> np.ndarray:
        """fsum of the cells' terms plus fsum of the row digits' terms, for every word.

        ``cell_logs`` holds one term per cell rank, ``row_logs`` one per
        occupied row (in ``derive_indices(spec).rows`` order).  math.fsum is correctly
        rounded, so the value depends only on how often each digit occurs and
        is taken once per count vector.  Returns floats in sequence order.
        """
        g = len(cell_logs)
        cells, rows = cell_logs.tolist(), row_logs.tolist()
        per_block = []
        for inverse, counts in self._classes:
            sums = [_fsum_counts(cells, c[:g]) + _fsum_counts(rows, c[g:]) for c in counts]
            per_block.append(np.array(sums)[inverse])
        return self.gather(per_block)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        out: list[Word | None] = [None] * len(self)
        for p, blk in zip(self.pos, self.blocks):
            for i, w in zip(p.tolist(), decode(self.spec, blk)):
                out[i] = w
        return tuple(out)

    def word(self, i: int) -> Word:
        """The word at sequence index i, decoded on its own."""
        for p, blk in zip(self.pos, self.blocks):
            at = np.flatnonzero(p == i)
            if at.size:
                return decode(self.spec, blk.take(at[:1]))[0]
        raise IndexError(i)
