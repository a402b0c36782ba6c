"""Integer word codes: whole levels of location codes as numpy arrays.

An order-k word (a, b) is coded by two integers.  A reads the ell(k) cells of
a as base-G digits, G being the number of occupied cells ranked by (i, j);
B reads the k - ell(k) row digits of b in base m.  Within one order, sorting
by (A, B) is the canonical (a, b) order, and refinement, flattening and
prefixes are integer arithmetic on whole arrays.

Codes sit in int64 arrays while G^ell(k) m^(k - ell(k)) stays below
INT_LIMIT; past it the same code runs on dtype=object arrays of Python ints.
Quantities that are correctly rounded sums over a word's digits (math.fsum of
log probabilities) depend only on how often each cell and row digit occurs,
so ``values`` evaluates them once per distinct count vector on a
representative word, with the scalar functions of ``words``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .carpet import CarpetSpec
from .words import Word, ell, ell_steps, log_tables, step_table

__all__ = [
    "INT_LIMIT",
    "Block",
    "WordCodes",
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


class Tables(NamedTuple):
    cells: tuple[tuple[int, int], ...]  # occupied cells by rank
    cell_i: np.ndarray
    cell_j: np.ndarray
    up: np.ndarray  # log p_ij - log q_j per cell rank
    rows: np.ndarray  # occupied row digits, ascending


@lru_cache(maxsize=None)
def tables(spec: CarpetSpec) -> Tables:
    """Cell ranks and per-digit arrays of a carpet (cached; treat as read-only)."""
    cells = tuple(sorted((i, j) for i, j, _ in spec.entries))
    log_p, log_q = log_tables(spec)
    return Tables(
        cells=cells,
        cell_i=np.array([i for i, _ in cells], dtype=np.int64),
        cell_j=np.array([j for _, j in cells], dtype=np.int64),
        up=np.array([log_p[c] - log_q[c[1]] for c in cells]),
        rows=np.array([j for j, _ in step_table(spec).rows], dtype=np.int64),
    )


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
    """Children of every word, parent by parent in ``words.children`` order.

    Returns (children, parent index, upgraded cell rank or None on a flat
    step, index of the appended row digit in the occupied rows).
    """
    t = tables(spec)
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
    t = tables(spec)
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
    g = len(tables(spec).cells)
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
    t = tables(spec)
    lk = ell(spec, blk.k) if cells is None else cells
    a_rows = _digits(blk.a, len(t.cells), lk).tolist()
    b_rows = _digits(blk.b, spec.m, blk.k - lk).tolist()
    cells = t.cells
    return [Word(tuple(cells[c] for c in a), tuple(b)) for a, b in zip(a_rows, b_rows)]


def all_codes(spec: CarpetSpec, k: int) -> Block:
    """Every order-k word, in ``words.all_words`` order."""
    blk = root()
    for _ in range(k):
        blk = expand(spec, blk)[0]
    return blk


def _count_classes(spec: CarpetSpec, blk: Block) -> tuple[np.ndarray, list[Word]]:
    """Words grouped by digit counts: class of each word, one word per class.

    The class key adds base^c for every occurrence of digit c (cells first,
    then row digits); no digit occurs more than k times, so base = k + 1
    keeps the counts apart.
    """
    t = tables(spec)
    g, lk, base = len(t.cells), ell(spec, blk.k), blk.k + 1
    width = g + spec.m
    dtype = np.int64 if base**width < INT_LIMIT else object
    weight = np.array([base**c for c in range(width)], dtype=dtype)
    key = np.zeros(len(blk.a), dtype=dtype)
    for col in _digits(blk.a, g, lk).T:
        key = key + weight[col]
    for col in _digits(blk.b, spec.m, blk.k - lk).T:
        key = key + weight[g + col]
    uniq, inverse = np.unique(key, return_inverse=True)
    reps = []
    for u in uniq.tolist():
        counts = [u // base**c % base for c in range(width)]
        reps.append(
            Word(
                tuple(c for c, cnt in zip(t.cells, counts) for _ in range(cnt)),
                tuple(j for j, cnt in enumerate(counts[g:]) for _ in range(cnt)),
            )
        )
    return inverse.reshape(-1), reps


def centers(spec: CarpetSpec, blk: Block) -> list[tuple[float, float]]:
    """Centres of the approximate squares, as ``ApproxSquare.center`` rounds them.

    (2p + 1) / (2 n^ell) is Python int true division, which is correctly
    rounded, so it equals float(Fraction(2p + 1, 2 n^ell)).
    """
    t = tables(spec)
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
        out = np.empty(len(self), dtype=per_block[0].dtype)
        for p, values in zip(self.pos, per_block):
            out[p] = values
        return out

    @cached_property
    def _classes(self) -> list[tuple[np.ndarray, list[Word]]]:
        return [_count_classes(self.spec, blk) for blk in self.blocks]

    def values(self, fn: Callable[[Word], float]) -> np.ndarray:
        """fn of every word, in sequence order, for fn that depends only on digit counts."""
        return self.gather(
            [np.array([fn(w) for w in reps])[inv] for inv, reps in self._classes]
        )

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
