"""Word-by-word reference walks over tuples, and helpers that feed tuples to the code walks.

The package runs on integer word codes; these are the depth-first and
breadth-first walks over word and cylinder-pair tuples that the code walks
must reproduce bit for bit, with the scalar per-word functions, geometry and
glue they rest on, as the package had them before it kept only word codes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

import carpetquant as cq
from carpetquant import Word, codes
from carpetquant.carpet import cell_probabilities, derive_indices
from carpetquant.codes import BadWord, Block, WordCodes, ell, ell_steps

ROOT = Word((), ())


def order(w):
    return len(w.a) + len(w.b)


def validate_word(spec, w):
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


class StepTable(NamedTuple):
    rows: tuple
    upgrades: dict


@lru_cache(maxsize=None)
def step_table(spec):
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


def children(spec, w):
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


def flatten(spec, w):
    """The parent word: inverse of the refinement step."""
    k = order(w)
    if not ell_steps(spec, k - 1):
        return Word(w.a, w.b[:-1])
    last_cell = w.a[-1]
    return Word(w.a[:-1], (last_cell[1],) + w.b[:-1])


@lru_cache(maxsize=None)
def log_tables(spec):
    """Per-cell and per-row log probabilities (cached; treat as read-only)."""
    cells = {cell: math.log(p) for cell, p in cell_probabilities(spec).items()}
    rows = {j: math.log(qj) for j, qj in derive_indices(spec).q}
    return cells, rows


def log_measure(spec, w):
    """log of the cylinder mass: cells contribute log p_ij, row digits log q_j."""
    log_p, log_q = log_tables(spec)
    return math.fsum(log_p[cell] for cell in w.a) + math.fsum(log_q[j] for j in w.b)


def measure(spec, w):
    return math.exp(log_measure(spec, w))


def log_weight(spec, r, w):
    """log of the order-r weight mu_w * m^(-|w| r)."""
    return log_measure(spec, w) - order(w) * r * math.log(spec.m)


def log_energy(spec, consts, w):
    """log of the energy (weight raised to the moment exponent t_r)."""
    return consts.t_r * log_weight(spec, consts.r, w)


def energy(spec, consts, w):
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

    def center(self):
        return (
            float(Fraction(2 * self.p + 1, 2 * self.n**self.ell)),
            float(Fraction(2 * self.q + 1, 2 * self.m**self.k)),
        )

    def contains(self, other):
        """True when this rectangle contains the other (closed, exact)."""
        xs, xo = self.n**other.ell, other.n**self.ell
        if not (self.p * xs <= other.p * xo and (other.p + 1) * xo <= (self.p + 1) * xs):
            return False
        ys, yo = self.m**other.k, other.m**self.k
        return self.q * ys <= other.q * yo and (other.q + 1) * yo <= (self.q + 1) * ys

    def overlaps_interior(self, other):
        """True when the open interiors intersect (exact)."""
        xs, xo = self.n**other.ell, other.n**self.ell
        if not (self.p * xs < (other.p + 1) * xo and other.p * xo < (self.p + 1) * xs):
            return False
        ys, yo = self.m**other.k, other.m**self.k
        return self.q * ys < (other.q + 1) * yo and other.q * yo < (self.q + 1) * ys


def rect(spec, w):
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


class CylinderPair(NamedTuple):
    """A cylinder in the product space: a cell block and a row-digit block."""

    sigma: tuple
    omega: tuple


class TiltedLogs(NamedTuple):
    """Logs of the tilted cell and row probabilities, keyed by cell and by row digit."""

    log_p_tilde: dict
    log_q_tilde: dict


def reference_product_weights(spec, consts):
    """Normalised tilted vectors: p~_ij = P^-1 (p_ij m^-r)^t, q~_j = Q^-1 (q_j m^-r)^t."""
    t = consts.t_r
    log_mr = -consts.r * math.log(spec.m)
    log_p_cell, log_q_row = log_tables(spec)
    log_p_tilde = {
        cell: t * (lp + log_mr) - math.log(consts.P) for cell, lp in log_p_cell.items()
    }
    log_q_tilde = {j: t * (lq + log_mr) - math.log(consts.Q) for j, lq in log_q_row.items()}
    return TiltedLogs(log_p_tilde, log_q_tilde)


def embed(w):
    """A word's two digit blocks, read as a product-space cylinder."""
    return CylinderPair(w.a, w.b)


def log_w_mass(pw, c):
    return math.fsum(pw.log_p_tilde[cell] for cell in c.sigma) + math.fsum(
        pw.log_q_tilde[j] for j in c.omega
    )


def w_mass(pw, c):
    """Product measure of the cylinder (1.0 for the empty pair)."""
    return math.exp(log_w_mass(pw, c))


def reference_log_epsilon(spec, consts, j, tau):
    """log of the anchor's quota eta_lo^(j t) / energy(tau); BadTau below the threshold."""
    log_eta = math.log(consts.eta_lo)
    lw_tau = log_weight(spec, consts.r, tau)
    if lw_tau < j * log_eta:
        raise cq.BadTau("anchor sits below the antichain threshold; no quota to fill")
    return j * consts.t_r * log_eta - consts.t_r * lw_tau


def glue(tau, pair):
    """Concatenate an anchor word with a pair's blocks into one location code."""
    return Word(tau.a + pair.sigma, tau.b + pair.omega)


def reference_build_upsilon(spec, consts, j, cap=cq.antichain.DEFAULT_CAP):
    """Depth-first threshold walk over word tuples: (words, log weights) sorted canonically."""
    threshold = j * math.log(consts.eta_lo)
    rows, upgrades = step_table(spec)
    shift = -consts.r * math.log(spec.m)
    flat = tuple((jj, lq + shift) for jj, lq in rows)
    out_words, out_logw = [], []
    stack = [((), (), 0.0)]
    while stack:
        a, b, lw = stack.pop()
        if lw < threshold:
            out_words.append(Word(a, b))
            out_logw.append(lw)
            if len(out_words) > cap:
                raise cq.CapExceeded(cap, len(out_words), "weight-threshold antichain")
            continue
        if ell_steps(spec, len(a) + len(b)):
            j_head, tail = b[0], b[1:]
            for i, up in upgrades[j_head]:
                a2 = a + ((i, j_head),)
                for jj, step in flat:
                    stack.append((a2, tail + (jj,), lw + up + step))
        else:
            for jj, step in flat:
                stack.append((a, b + (jj,), lw + step))
    paired = sorted(zip(out_words, out_logw), key=lambda t: (order(t[0]), t[0].a, t[0].b))
    return tuple(w for w, _ in paired), tuple(lw for _, lw in paired)


def reference_all_words(spec, k):
    level = [ROOT]
    for _ in range(k):
        level = [c for w in level for c in children(spec, w)]
    return level


def reference_s2_family(spec, consts, sigma):
    """Depth-first walk of sigma's descendants whose log energy clears the H2 cut, canonical."""
    t = consts.t_r
    base = log_energy(spec, consts, sigma)
    cut = base - math.log(consts.H2)
    out = []
    stack = [(sigma, base)]
    shift = -consts.r * math.log(spec.m)
    rows, upgrades = step_table(spec)
    while stack:
        w, le = stack.pop()
        if le < cut:
            continue
        out.append(w)
        if ell_steps(spec, order(w)):
            j_head = w.b[0]
            tail = w.b[1:]
            for i, up in upgrades[j_head]:
                a = w.a + ((i, j_head),)
                for jj, lq in rows:
                    stack.append((Word(a, tail + (jj,)), le + t * ((up + lq) + shift)))
        else:
            for jj, lq in rows:
                stack.append((Word(w.a, w.b + (jj,)), le + t * (lq + shift)))
    out.sort(key=lambda w: (order(w), w.a, w.b))
    return out


EMPTY_PAIR = CylinderPair((), ())


def pair_order(c):
    return len(c.sigma) + len(c.omega)


def is_aligned(spec, c, offset=0):
    """ell-alignment: the cell block is exactly as long as an order offset+|c|
    location code demands beyond the offset's own cell count."""
    return len(c.sigma) + ell(spec, offset) == ell(spec, pair_order(c) + offset)


def aligned_children(spec, c, offset=0):
    """One aligned step: every cell when ell steps, else every row digit."""
    if ell_steps(spec, pair_order(c) + offset):
        return [CylinderPair(c.sigma + ((i, j),), c.omega) for i, j, _ in spec.entries]
    return [CylinderPair(c.sigma, c.omega + (j,)) for j, _ in step_table(spec).rows]


def paired_flatten(spec, c, offset=0):
    """Parent of an aligned pair: drops the symbol the last aligned step added."""
    if not ell_steps(spec, offset + pair_order(c) - 1):
        return CylinderPair(c.sigma, c.omega[:-1])
    return CylinderPair(c.sigma[:-1], c.omega)


def log_pair_energy(spec, consts, c):
    """Energy of the pair read as a free concatenation of its symbols."""
    log_p_cell, log_q_row = log_tables(spec)
    log_mu = math.fsum(log_p_cell[cell] for cell in c.sigma) + math.fsum(
        log_q_row[j] for j in c.omega
    )
    return consts.t_r * (log_mu - pair_order(c) * consts.r * math.log(spec.m))


def reference_gamma_pairs(spec, pw, k1, log_eps, cap):
    """Depth-first pair walk (offset k1): pairs collected below epsilon, with their log W."""
    pairs, logs = [], []
    rows = step_table(spec).rows
    cells = tuple((i, jj) for i, jj, _ in spec.entries)
    stack = [(EMPTY_PAIR, 0.0)]
    while stack:
        c, lw = stack.pop()
        if lw < log_eps:
            pairs.append(c)
            logs.append(lw)
            if len(pairs) > cap:
                raise cq.CapExceeded(cap, len(pairs), "per-anchor threshold family")
            continue
        if ell_steps(spec, k1 + len(c.sigma) + len(c.omega)):
            for cell in cells:
                stack.append(
                    (CylinderPair(c.sigma + (cell,), c.omega), lw + pw.log_p_tilde[cell])
                )
        else:
            for jj, _ in rows:
                stack.append(
                    (CylinderPair(c.sigma, c.omega + (jj,)), lw + pw.log_q_tilde[jj])
                )
    return pairs, logs


def s1_family(spec, consts, words, sigma):
    """Members of the family whose *both* blocks extend sigma's blocks."""
    la, lb = len(sigma.a), len(sigma.b)
    return [
        tau
        for tau in words
        if len(tau.a) >= la
        and len(tau.b) >= lb
        and tau.a[:la] == sigma.a
        and tau.b[:lb] == sigma.b
    ]


def reference_l1_l2(spec, consts, ups, cap=cq.antichain.DEFAULT_CAP):
    """Glued level and core built word by word: (l1, l2, gamma sizes)."""
    k1 = ups.codes.blocks[0].k
    lam = [w for w in ups.words if order(w) == k1]
    pw = reference_product_weights(spec, consts)
    l1, sizes = list(lam), []
    for tau in reference_all_words(spec, k1):
        if tau in lam:
            continue
        log_eps = reference_log_epsilon(spec, consts, ups.j, tau)
        pairs, _ = reference_gamma_pairs(spec, pw, k1, log_eps, cap)
        sizes.append(len(pairs))
        l1.extend(glue(tau, pair) for pair in pairs)
        if len(l1) > cap:
            raise cq.CapExceeded(cap, len(l1), "glued level")
    member = set(l1)
    core = set()
    for rho in l1:
        best = w = rho
        while order(w) > k1:
            w = flatten(spec, w)
            if w in member:
                best = w
        core.add(best)
    l2 = tuple(sorted(core, key=lambda w: (order(w), w.a, w.b)))
    return tuple(l1), l2, tuple(sizes)


def encode(spec, words):
    """The (a, b) codes of words or cylinder pairs, as object arrays."""
    rank = {c: r for r, c in enumerate(codes.tables(spec).cells)}
    a, b = [], []
    for cells, rows in words:
        ca = cb = 0
        for c in cells:
            ca = ca * len(rank) + rank[c]
        for j in rows:
            cb = cb * spec.m + j
        a.append(ca)
        b.append(cb)
    return np.array(a, dtype=object), np.array(b, dtype=object)


def word_codes(spec, words):
    """The words, in the given order, as a WordCodes sequence."""
    by_order = {}
    for i, w in enumerate(words):
        by_order.setdefault(order(w), []).append(i)
    blocks, pos = [], []
    for k in sorted(by_order):
        dt = codes.code_dtype(spec, k)
        a, b = encode(spec, [words[i] for i in by_order[k]])
        blocks.append(Block(k, a.astype(dt), b.astype(dt)))
        pos.append(np.array(by_order[k]))
    return WordCodes(spec, tuple(blocks), tuple(pos))


def level_codes(spec, k):
    """Every order-k word as a one-block code sequence."""
    blk = codes.all_codes(spec, k)
    return WordCodes(spec, (blk,), (np.arange(len(blk.a)),))


def s2_families(spec, consts, anchors):
    """The shipped s2 family of each anchor word, canonical."""
    fam, owner = cq.s2_family(spec, consts, word_codes(spec, anchors))
    out = [[] for _ in anchors]
    for w, i in zip(fam.words, owner.tolist()):
        out[i].append(w)
    return out


def gamma_families(spec, pw, k1, log_eps, cap=cq.antichain.DEFAULT_CAP):
    """The shipped pair walk, decoded: per quota, (pairs, log W) in walk order."""
    pairs = cq.antichain._gamma_pairs(spec, pw, k1, np.asarray(log_eps, dtype=float), cap)
    out = [([], []) for _ in log_eps]
    for i, u in enumerate(pairs.family.tolist()):
        blk = Block(int(pairs.depth[i]), pairs.a[i : i + 1], pairs.b[i : i + 1])
        out[u][0].append(CylinderPair(*codes.decode(spec, blk, int(pairs.cells[i]))[0]))
        out[u][1].append(float(pairs.log_w[i]))
    return out


def pair_levels(spec, pw, offset, depth):
    """Levels 0..depth of the shipped pair step from the empty pair: (parent, pairs, log W)."""
    a = b = cells = np.zeros(1, dtype=np.int64)
    lw = np.zeros(1)
    levels = [(np.zeros(0, dtype=np.int64), [EMPTY_PAIR], lw)]
    for d in range(depth):
        parent, _, a, b, cells, lw = cq.antichain._pair_step(
            spec, pw, offset + d, a, b, cells, lw
        )
        assert (cells == ell(spec, offset + d + 1) - ell(spec, offset)).all()
        pairs = [CylinderPair(*w) for w in codes.decode(spec, Block(d + 1, a, b), int(cells[0]))]
        levels.append((parent, pairs, lw))
    return levels


def count_class_values(spec, consts, words):
    """The shipped count-class log weight, log energy and log W of word codes, as lists."""
    pw = cq.product_weights(spec, consts)
    return (
        cq.antichain._log_weight(spec, consts.r, words).tolist(),
        cq.antichain._log_energy(spec, consts, words).tolist(),
        words.log_sum(pw.log_p_tilde, pw.log_q_tilde).tolist(),
    )


def reference_values(spec, consts, words):
    """The scalar log weight, log energy and log W of each word tuple."""
    pw = reference_product_weights(spec, consts)
    return (
        [log_weight(spec, consts.r, w) for w in words],
        [log_energy(spec, consts, w) for w in words],
        [log_w_mass(pw, embed(w)) for w in words],
    )


def reference_count_classes(spec, blk):
    """Count classes keyed digit by digit: one pass over the block per digit of every word."""
    t = codes.tables(spec)
    g, lk, base = len(t.cells), ell(spec, blk.k), blk.k + 1
    width = g + len(t.rows)
    dtype = np.int64 if base**width < codes.INT_LIMIT else object
    weight = np.array([base**c for c in range(width)], dtype=dtype)
    row_rank = np.zeros(spec.m, dtype=np.int64)
    row_rank[t.rows] = np.arange(len(t.rows))
    key = np.zeros(len(blk.a), dtype=dtype)
    for col in codes._digits(blk.a, g, lk).T:
        key = key + weight[col]
    for col in codes._digits(blk.b, spec.m, blk.k - lk).T:
        key = key + weight[g + row_rank[col]]
    uniq, inverse = np.unique(key, return_inverse=True)
    counts = [[u // base**c % base for c in range(width)] for u in uniq.tolist()]
    return inverse.reshape(-1), counts
