"""Product Bernoulli measure on cell x row symbol sequences.

Tilting the cell and row probabilities by the moment exponent t_r and
normalising by the spectral sums P and Q gives two probability vectors; the
product measure W of the two Bernoulli schemes is the measure-theoretic
yardstick of every overlap argument.  A word embeds as the cylinder of its
two digit blocks, and W of that cylinder brackets the word's energy within
[1, P/Q] once the order clears 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import codes
from .carpet import CarpetSpec, derive_indices
from .codes import WordCodes
from .constants import SpectralConstants

__all__ = [
    "ProductWeights",
    "product_weights",
    "S1Scan",
    "s1_scan",
]


@dataclass(frozen=True, eq=False)
class ProductWeights:
    """Logs of the tilted cell and row probability vectors.

    ``log_p_tilde`` holds one value per cell rank and ``log_q_tilde`` one per
    occupied row, as ``derive_indices`` orders them.
    """

    log_p_tilde: np.ndarray = field(repr=False)
    log_q_tilde: np.ndarray = field(repr=False)


def product_weights(spec: CarpetSpec, consts: SpectralConstants) -> ProductWeights:
    """Normalised tilted vectors: p~_ij = P^-1 (p_ij m^-r)^t, q~_j = Q^-1 (q_j m^-r)^t."""
    t = consts.t_r
    log_mr = -consts.r * math.log(spec.m)
    tab = derive_indices(spec)
    return ProductWeights(
        log_p_tilde=t * (tab.log_p + log_mr) - math.log(consts.P),
        log_q_tilde=t * (tab.log_q + log_mr) - math.log(consts.Q),
    )


class S1Scan(NamedTuple):
    """Per-anchor aggregates of the overlap family, one entry per member in word order."""

    w_sum: np.ndarray  # W masses of the family, added in word order
    gap: np.ndarray  # largest order gap within the family


def s1_scan(spec: CarpetSpec, members: WordCodes, w: np.ndarray) -> S1Scan:
    """Per-anchor aggregate of the overlap family over a whole antichain.

    An anchor's overlap family is every member whose two blocks extend the
    anchor's, i.e. whose embedded cylinder meets the anchor's; its W masses
    sum to at most H1 times the anchor's and its orders exceed the anchor's
    by at most H1.  ``members`` must be canonical and ``w`` holds each
    member's W mass, in sequence order.  For each word tau, every
    aligned prefix of tau that is itself a member is an anchor whose family
    contains tau; each member is its own anchor.  One prefix lookup per
    (anchor order, word order) pair of code blocks replaces O(words^2)
    comparisons.  Entry i of the result belongs to member i: a family holds
    its anchor and words of higher order only, so a word-by-word scan of the
    canonical sequence meets the anchors in this order too.
    """
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
    return S1Scan(w_sum=w_sum, gap=max_gap)
