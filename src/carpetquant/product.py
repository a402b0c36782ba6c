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
from typing import NamedTuple

import numpy as np

from . import codes
from .carpet import CarpetSpec
from .codes import WordCodes
from .constants import SpectralConstants
from .words import Word, log_tables

__all__ = [
    "CylinderPair",
    "ProductWeights",
    "product_weights",
    "embed",
    "log_w_mass",
    "w_mass",
    "S1Scan",
    "s1_scan",
]


class CylinderPair(NamedTuple):
    """A cylinder in the product space: a cell block and a row-digit block."""

    sigma: tuple[tuple[int, int], ...]
    omega: tuple[int, ...]


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


class S1Scan(NamedTuple):
    """Per-anchor aggregates of the overlap family, anchors in the order a
    word-by-word scan first meets them (word order, then anchor order)."""

    anchor: np.ndarray  # index of the anchor among the members
    w_sum: np.ndarray  # W masses of the family, added in word order
    gap: np.ndarray  # largest order gap within the family


def s1_scan(spec: CarpetSpec, pw: ProductWeights, members: WordCodes) -> S1Scan:
    """Per-anchor aggregate of the overlap family over a whole antichain.

    An anchor's overlap family is every member whose two blocks extend the
    anchor's, i.e. whose embedded cylinder meets the anchor's; its W masses
    sum to at most H1 times the anchor's and its orders exceed the anchor's
    by at most H1.  ``members`` must be canonical.  For each word tau, every
    aligned prefix of tau that is itself a member is an anchor whose family
    contains tau; each member is its own anchor.  One prefix lookup per
    (anchor order, word order) pair of code blocks replaces O(words^2)
    comparisons.
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
