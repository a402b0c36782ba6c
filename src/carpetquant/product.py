"""Product Bernoulli measure on cell x row symbol sequences.

Tilting the cell and row probabilities by the moment exponent t_r and
normalising by the spectral sums P and Q gives two probability vectors; the
product measure W of the two Bernoulli schemes is the measure-theoretic
yardstick of every overlap argument.  A word embeds as the cylinder pair of
its two digit blocks, and W of the embedded pair brackets the word's energy
within [1, P/Q] once the order clears 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import codes
from .carpet import CarpetSpec
from .codes import WordCodes
from .constants import SpectralConstants
from .words import Word, ell, ell_steps, log_tables, step_table

__all__ = [
    "EmptyPair",
    "MisalignedPair",
    "CylinderPair",
    "ProductWeights",
    "product_weights",
    "pair_order",
    "embed",
    "log_w_mass",
    "w_mass",
    "log_pair_energy",
    "is_aligned",
    "aligned_children",
    "gamma_h",
    "paired_flatten",
    "s1_family",
    "S1Scan",
    "s1_scan",
]


class EmptyPair(ValueError):
    """The empty cylinder pair has no parent."""


class MisalignedPair(ValueError):
    """Pair does not satisfy the ell-alignment constraint of its family."""


class CylinderPair(NamedTuple):
    """A cylinder in the product space: a cell block and a row-digit block."""

    sigma: tuple[tuple[int, int], ...]
    omega: tuple[int, ...]


EMPTY_PAIR = CylinderPair((), ())


@dataclass(frozen=True, eq=False)
class ProductWeights:
    """Tilted cell/row probability vectors and their logs."""

    r: float
    t_r: float
    P: float
    Q: float
    p_tilde: dict[tuple[int, int], float] = field(repr=False)
    q_tilde: dict[int, float] = field(repr=False)
    log_p_tilde: dict[tuple[int, int], float] = field(repr=False)
    log_q_tilde: dict[int, float] = field(repr=False)


def product_weights(spec: CarpetSpec, consts: SpectralConstants) -> ProductWeights:
    """Normalised tilted vectors: p~_ij = P^-1 (p_ij m^-r)^t, q~_j = Q^-1 (q_j m^-r)^t."""
    t = consts.t_r
    log_mr = -consts.r * math.log(spec.m)
    log_p_cell, log_q_row = log_tables(spec)
    log_p_tilde = {
        cell: t * (lp + log_mr) - math.log(consts.P) for cell, lp in log_p_cell.items()
    }
    log_q_tilde = {j: t * (lq + log_mr) - math.log(consts.Q) for j, lq in log_q_row.items()}
    return ProductWeights(
        r=consts.r,
        t_r=t,
        P=consts.P,
        Q=consts.Q,
        p_tilde={cell: math.exp(v) for cell, v in log_p_tilde.items()},
        q_tilde={j: math.exp(v) for j, v in log_q_tilde.items()},
        log_p_tilde=log_p_tilde,
        log_q_tilde=log_q_tilde,
    )


def pair_order(c: CylinderPair) -> int:
    return len(c.sigma) + len(c.omega)


def embed(w: Word) -> CylinderPair:
    """A word's two digit blocks, read as a product-space cylinder."""
    return CylinderPair(w.a, w.b)


def log_w_mass(pw: ProductWeights, c: CylinderPair) -> float:
    return math.fsum(pw.log_p_tilde[cell] for cell in c.sigma) + math.fsum(
        pw.log_q_tilde[j] for j in c.omega
    )


def w_mass(pw: ProductWeights, c: CylinderPair) -> float:
    """Product measure of the cylinder (1.0 for the empty pair)."""
    return math.exp(log_w_mass(pw, c))


def log_pair_energy(spec: CarpetSpec, consts: SpectralConstants, c: CylinderPair) -> float:
    """Energy of the pair read as a free concatenation of its symbols."""
    log_p_cell, log_q_row = log_tables(spec)
    log_mu = math.fsum(log_p_cell[cell] for cell in c.sigma) + math.fsum(
        log_q_row[j] for j in c.omega
    )
    return consts.t_r * (log_mu - pair_order(c) * consts.r * math.log(spec.m))


def is_aligned(spec: CarpetSpec, c: CylinderPair, offset: int = 0) -> bool:
    """ell-alignment: the cell block is exactly as long as an order offset+|c|
    location code demands beyond the offset's own cell count."""
    total = pair_order(c) + offset
    return len(c.sigma) + ell(spec, offset) == ell(spec, total)


def aligned_children(
    spec: CarpetSpec, c: CylinderPair, offset: int = 0
) -> tuple[CylinderPair, ...]:
    """One aligned extension step; exactly one of the two forms applies.

    When ell increments at the next total order the cell block grows by one
    cell (all occupied cells); otherwise the row block gains one row digit.
    Either way the children's W masses sum to the parent's.
    """
    if ell_steps(spec, pair_order(c) + offset):
        return tuple(
            CylinderPair(c.sigma + ((i, j),), c.omega) for i, j, _ in spec.entries
        )
    return tuple(CylinderPair(c.sigma, c.omega + (j,)) for j, _ in step_table(spec).rows)


def gamma_h(
    spec: CarpetSpec, c: CylinderPair, h: int, offset: int = 0
) -> list[CylinderPair]:
    """All aligned extensions of c by h symbols (a W-partition of c)."""
    if h < 0:
        raise ValueError(f"depth must be >= 0, got {h}")
    if not is_aligned(spec, c, offset):
        raise MisalignedPair(f"anchor pair {c} is not aligned at offset {offset}")
    level = [c]
    for _ in range(h):
        nxt: list[CylinderPair] = []
        for pair in level:
            nxt.extend(aligned_children(spec, pair, offset))
        level = nxt
    return level


def paired_flatten(spec: CarpetSpec, c: CylinderPair, offset: int = 0) -> CylinderPair:
    """Parent of an aligned pair: drops the symbol the last aligned step added."""
    d = pair_order(c)
    if d == 0:
        raise EmptyPair("the empty pair has no parent")
    if not is_aligned(spec, c, offset):
        raise MisalignedPair(f"pair {c} is not aligned at offset {offset}")
    if not ell_steps(spec, offset + d - 1):
        return CylinderPair(c.sigma, c.omega[:-1])
    return CylinderPair(c.sigma[:-1], c.omega)


def s1_family(
    spec: CarpetSpec,
    consts: SpectralConstants,
    words: Sequence[Word],
    sigma: Word,
) -> list[Word]:
    """Members of the family whose *both* blocks extend sigma's blocks.

    These are exactly the antichain members whose embedded cylinders meet
    sigma's embedded cylinder; their W masses sum to at most H1 times the
    anchor's W mass, and their orders exceed sigma's by at most H1.
    """
    la, lb = len(sigma.a), len(sigma.b)
    return [
        tau
        for tau in words
        if len(tau.a) >= la
        and len(tau.b) >= lb
        and tau.a[:la] == sigma.a
        and tau.b[:lb] == sigma.b
    ]


class S1Scan(NamedTuple):
    """Per-anchor aggregates of the overlap family, anchors in the order a
    word-by-word scan first meets them (word order, then anchor order)."""

    anchor: np.ndarray  # index of the anchor among the members
    w_sum: np.ndarray  # W masses of the family, added in word order
    gap: np.ndarray  # largest order gap within the family


def s1_scan(spec: CarpetSpec, pw: ProductWeights, members: WordCodes) -> S1Scan:
    """Per-anchor aggregate of the overlap family over a whole antichain.

    ``members`` must be canonical.  For each word tau, every aligned prefix
    of tau that is itself a member is an anchor whose family contains tau;
    each member is its own anchor.  Equivalent to running s1_family at every
    anchor, with one prefix lookup per (anchor order, word order) pair of
    code blocks instead of O(words^2) comparisons.
    """
    w = members.values(lambda word: w_mass(pw, embed(word)))
    taus, anchors, gaps = [], [], []
    for blk_k, pos_k in zip(members.blocks, members.pos):
        sorted_keys = codes.keys(spec, blk_k)
        for blk_t, pos_t in zip(members.blocks, members.pos):
            pre = codes.prefix(spec, blk_t, blk_k.k) if blk_t.k >= blk_k.k else None
            if pre is None:
                continue
            hit = codes.lookup(sorted_keys, codes.keys(spec, pre))
            found = hit >= 0
            taus.append(pos_t[found])
            anchors.append(pos_k[hit[found]])
            gaps.append(np.full(len(taus[-1]), blk_t.k - blk_k.k))
    tau, anchor, gap = (np.concatenate(x) for x in (taus, anchors, gaps))
    n = len(members)
    # bincount adds each anchor's terms one by one in word order, as a scan would
    w_sum = np.bincount(anchor, weights=w[tau], minlength=n)
    max_gap = np.zeros(n, dtype=np.int64)
    np.maximum.at(max_gap, anchor, gap)
    first = np.full(n, n)
    np.minimum.at(first, anchor, tau)
    met = np.lexsort((members.orders(), first))
    return S1Scan(anchor=met, w_sum=w_sum[met], gap=max_gap[met])
