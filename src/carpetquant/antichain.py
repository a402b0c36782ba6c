"""Threshold antichains and the machine-checked certificate suite.

The weight-threshold antichain at level j collects every word whose order-r
weight first drops below eta_lo^j; its words tile the carpet with comparable
weights, and counting them is what turns the dimension equation into
quantization asymptotics.  The multi-level construction (per-anchor threshold
families in the product space, glued into one level, then thinned to a
non-overlapping core) realises the codeword-count band phi.  certify() runs
every inequality the constructions are supposed to satisfy, with explicit
constants, and reports named failures with witness words.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import codes
from .carpet import CarpetSpec, derive_indices
from .codes import Block, Word, WordCodes, ell, ell_steps, encode_word
from .constants import SpectralConstants
from .product import ProductWeights, product_weights, s1_scan

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "BadTau",
    "Antichain",
    "L1L2Result",
    "CertificateCheck",
    "JCertificate",
    "CertificateReport",
    "build_upsilon",
    "s2_family",
    "build_l1_l2",
    "certify",
]

DEFAULT_CAP = 500_000

# Log-scale roundoff allowance for certified comparisons whose two sides are
# computed along different floating-point paths.  A genuine violation of any
# certified inequality is larger by many orders of magnitude.
LOG_SLACK = 1e-11

MASS_TOL = 1e-12


class CapExceeded(RuntimeError):
    """A construction grew past the configured cap; carries the partial count."""

    def __init__(self, cap: int, at_least: int, what: str = "antichain"):
        super().__init__(f"{what} exceeded cap {cap} (at least {at_least} members)")
        self.cap = cap
        self.at_least = at_least


class BadTau(ValueError):
    """Anchor word is not an order-k1 word sitting above the antichain."""


@dataclass(frozen=True, eq=False)
class Antichain:
    """A finite maximal antichain of words, held as canonical word codes.

    ``log_w`` holds the log weights in the canonical word order; ``words``
    decodes the members.
    """

    j: int
    codes: WordCodes = field(repr=False)
    log_w: np.ndarray = field(repr=False)

    @property
    def psi(self) -> int:
        return len(self.log_w)

    @property
    def words(self) -> tuple[Word, ...]:
        return self.codes.words


@dataclass(frozen=True, eq=False)
class L1L2Result:
    """Glued level (l1) and its non-overlapping core (l2), as word codes.

    ``l1_codes`` keeps the glued order: the antichain's minimum-order slice,
    then each anchor's family in anchor order.  ``l2_codes`` is canonical.
    ``l1_misfit`` is the first glued word whose shape is not a location code.
    """

    k1: int
    l1_codes: WordCodes = field(repr=False)
    l2_codes: WordCodes = field(repr=False)
    tau_count: int
    gamma_sizes: tuple[int, ...]
    gamma_defects: tuple[float, ...]
    l1_distinct: bool
    l1_misfit: Word | None

    @property
    def l1(self) -> tuple[Word, ...]:
        return self.l1_codes.words

    @property
    def l2(self) -> tuple[Word, ...]:
        return self.l2_codes.words

    @property
    def phi(self) -> int:
        return len(self.l2_codes)


def _exp(x: np.ndarray) -> np.ndarray:
    """libm's exp of every entry (np.exp can differ from it in the last bit).

    Count-class values repeat, so exp is taken once per distinct value.
    """
    u, inverse = np.unique(x, return_inverse=True)
    return np.array(list(map(math.exp, u.tolist())))[inverse.reshape(-1)]


def _log_weight(spec: CarpetSpec, r: float, words: WordCodes) -> np.ndarray:
    """log of every word's weight mu_w m^(-|w| r), its log mass taken per count class."""
    tab = derive_indices(spec)
    return words.log_sum(tab.log_p, tab.log_q) - words.orders() * r * math.log(spec.m)


def _log_energy(spec: CarpetSpec, consts: SpectralConstants, words: WordCodes) -> np.ndarray:
    """log of every word's energy: its weight raised to the moment exponent t_r."""
    return consts.t_r * _log_weight(spec, consts.r, words)


def build_upsilon(
    spec: CarpetSpec,
    consts: SpectralConstants,
    j: int,
    cap: int = DEFAULT_CAP,
) -> Antichain:
    """Collect every word whose weight first drops below eta_lo^j.

    Level by level from the root: a word is collected the first time its log
    weight falls below j*log(eta_lo), and refined while it is still >= the
    threshold (ties refine).  Each child's log weight is its parent's plus
    the step's increments, (lw + up) + step on an upgrade, lw + step
    otherwise, so every member's value is the same float a depth-first walk
    adds up.  The result is sorted canonically by (order, cells, row digits).
    """
    if j < 0:
        raise ValueError(f"threshold level must be >= 0, got {j}")
    threshold = j * math.log(consts.eta_lo)
    shift = -consts.r * math.log(spec.m)
    tab = derive_indices(spec)
    step = tab.log_q + shift
    front, lw = codes.root(), np.zeros(1)
    found: list[tuple[Block, np.ndarray]] = []
    count = 0
    while True:
        below = lw < threshold
        if below.any():
            found.append((front.take(below), lw[below]))
            count += int(below.sum())
        front, lw = front.take(~below), lw[~below]
        # every word still on the front has at least one member below it
        if count + len(lw) > cap:
            raise CapExceeded(cap, count + len(lw), "weight-threshold antichain")
        if not len(lw):
            break
        front, parent, cell, row = codes.expand(spec, front)
        lw = lw[parent] if cell is None else lw[parent] + tab.up[cell]
        lw = lw + step[row]
    members, log_w = WordCodes.from_blocks(spec, [b for b, _ in found], [w for _, w in found])
    return Antichain(j=j, codes=members, log_w=log_w)


def s2_family(
    spec: CarpetSpec, consts: SpectralConstants, anchors: WordCodes
) -> tuple[WordCodes, np.ndarray]:
    """Descendants of each anchor whose energy stays within a factor H2 of the anchor's.

    Energy decreases strictly along refinement, so each family is a finite
    subtree.  One level-synchronous walk over ``codes.expand`` serves every
    anchor; a child's log energy is le + t*((up + lq) + shift) after an
    upgrade and le + t*(lq + shift) otherwise, as a depth-first walk adds it.
    Returns the members, canonical, and each member's index in ``anchors``;
    both are empty when every anchor falls below its own cut (H2 < 1).
    """
    t, shift, tab = consts.t_r, -consts.r * math.log(spec.m), derive_indices(spec)
    flat, upgrade = t * (tab.log_q + shift), t * ((tab.up[:, None] + tab.log_q) + shift)
    base = _log_energy(spec, consts, anchors)
    cut = base - math.log(consts.H2)
    start = {blk.k: (blk, p) for blk, p in zip(anchors.blocks, anchors.pos)}
    k = min(start)
    front, owner, le = Block(k, *np.zeros((2, 0), dtype=np.int64)), np.zeros(0, int), np.zeros(0)
    found: list[tuple[Block, np.ndarray]] = []
    while start or len(le):
        if k in start:
            blk, p = start.pop(k)
            front = codes.join(spec, k, [front, blk])
            owner, le = np.concatenate([owner, p]), np.concatenate([le, base[p]])
        keep = le >= cut[owner]
        front, owner, le = front.take(keep), owner[keep], le[keep]
        if len(le):
            found.append((front, owner))
        front, parent, cell, row = codes.expand(spec, front)
        owner, le = owner[parent], le[parent] + (flat[row] if cell is None else upgrade[cell, row])
        k += 1
    return WordCodes.from_blocks(spec, [b for b, _ in found], [o for _, o in found])


def _pair_step(
    spec: CarpetSpec,
    pw: ProductWeights,
    k: int,
    a: np.ndarray,
    b: np.ndarray,
    cells: np.ndarray,
    lw: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One aligned step of cylinder pairs whose glued order is k, parent by parent.

    Where ell steps at k a pair gains any cell, in ``spec.entries`` order, as
    a base-G digit (its rank) of ``a``, and its cell count grows by one;
    otherwise it gains any occupied row digit, as a base-m digit of ``b``.  A
    child's log W mass is its parent's plus the digit's.  Returns (parent
    index, digit index, a, b, cell count, log W).
    """
    tab, dt = derive_indices(spec), codes.code_dtype(spec, k + 1)
    gains_cell = ell_steps(spec, k)
    if gains_cell:
        digits = np.array([tab.cells.index((i, j)) for i, j, _ in spec.entries])
        inc = pw.log_p_tilde[digits]
    else:
        digits, inc = tab.rows, pw.log_q_tilde
    parent = np.repeat(np.arange(len(lw)), len(digits))
    digit = np.tile(np.arange(len(digits)), len(lw))
    a, b, cells, lw = a.astype(dt)[parent], b.astype(dt)[parent], cells[parent], lw[parent]
    if gains_cell:
        return parent, digit, a * len(tab.cells) + digits[digit], b, cells + 1, lw + inc[digit]
    return parent, digit, a, b * spec.m + digits[digit], cells, lw + inc[digit]


class GammaPairs(NamedTuple):
    """Cylinder pairs of several threshold families, family by family."""

    family: np.ndarray  # index of the family's quota
    a: np.ndarray  # cell codes: cell ranks in base G
    b: np.ndarray  # row codes: row digits in base m
    cells: np.ndarray  # number of cells, as the walk added them
    depth: np.ndarray  # number of digits
    log_w: np.ndarray  # log W mass


def _gamma_pairs(
    spec: CarpetSpec, pw: ProductWeights, k1: int, log_eps: np.ndarray, cap: int
) -> GammaPairs:
    """Aligned pairs (offset k1) collected the first time their W mass drops below epsilon.

    One level-synchronous walk of ``_pair_step`` serves every quota in
    ``log_eps``.  Each family keeps the order of a depth-first walk that pops
    the last child first: its paths of digit indices, descending.  No
    collected path is a prefix of another, so paths padded to the deepest
    level sort into that order exactly.
    """
    n = len(log_eps)
    fam, lw, count = np.arange(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    a = b = cells = path = np.zeros(n, dtype=np.int64)
    levels, radix = [], []  # per depth: (family, a, b, path, cells, log W) of its collected pairs
    while True:
        below = lw < log_eps[fam]
        levels.append((fam[below], a[below], b[below], path[below], cells[below], lw[below]))
        count += np.bincount(fam[below], minlength=n)
        fam, a, b, path = fam[~below], a[~below], b[~below], path[~below]
        cells, lw = cells[~below], lw[~below]
        # every pair still on the front has at least one collected pair below it
        bound = count + np.bincount(fam, minlength=n)
        if (bound > cap).any():
            raise CapExceeded(cap, int(bound.max()), "per-anchor threshold family")
        if not len(lw):
            break
        parent, digit, a, b, cells, lw = _pair_step(spec, pw, k1 + len(radix), a, b, cells, lw)
        radix.append(len(digit) // len(fam))
        fam, path = fam[parent], path.astype(a.dtype)[parent] * radix[-1] + digit
    dt = codes.code_dtype(spec, k1 + len(radix))
    key = np.concatenate([lev[3].astype(dt) * math.prod(radix[d:]) for d, lev in enumerate(levels)])
    fam, a, b, _, cells, log_w = (np.concatenate(col) for col in zip(*levels))
    depth = np.repeat(np.arange(len(levels)), [len(lev[0]) for lev in levels])
    order = np.lexsort((-key, fam))
    return GammaPairs(fam[order], a[order], b[order], cells[order], depth[order], log_w[order])


def _log_epsilon(
    spec: CarpetSpec, consts: SpectralConstants, j: int, taus: WordCodes
) -> np.ndarray:
    """log of each anchor's quota eta_lo^(j t) / energy(tau); BadTau below the threshold."""
    log_eta = math.log(consts.eta_lo)
    lw_tau = _log_weight(spec, consts.r, taus)
    if (lw_tau < j * log_eta).any():
        raise BadTau("anchor sits below the antichain threshold; no quota to fill")
    return j * consts.t_r * log_eta - consts.t_r * lw_tau


def _member_ancestors(
    spec: CarpetSpec, blk: Block, member: dict[int, np.ndarray], k_min: int
) -> tuple[np.ndarray, dict[int, Block]]:
    """Per word, the lowest order >= k_min at which its ancestor is a member.

    ``member`` maps an order to the sorted keys of the members of that order.
    Words with no member among their proper ancestors get their own order.
    Also returns the ancestors of every word, by order.
    """
    top = np.full(len(blk.a), blk.k)
    chain = {blk.k: blk}
    while blk.k > k_min:
        blk = codes.flatten(spec, blk)
        chain[blk.k] = blk
        if blk.k in member:
            top[codes.lookup(member[blk.k], codes.keys(spec, blk)) >= 0] = blk.k
    return top, chain


def build_l1_l2(
    spec: CarpetSpec,
    consts: SpectralConstants,
    upsilon: Antichain,
    cap: int = DEFAULT_CAP,
) -> L1L2Result:
    """Glue per-anchor families into one level, then thin to the core.

    l1 = the antichain's own minimum-order slice plus, for every order-k1
    word still above the threshold (in ``codes.all_codes`` order), its glued
    threshold family.  l2 keeps, for each l1 word, the topmost l1 word whose
    square contains it; the result is pairwise non-overlapping (containment
    between approximate squares coincides with flattening ancestry).  A
    family depends on its anchor only through epsilon, so each distinct
    epsilon is walked once.
    """
    lam = upsilon.codes.blocks[0]
    j, k1 = upsilon.j, lam.k
    pw = product_weights(spec, consts)
    g, m = len(derive_indices(spec).cells), spec.m

    taus = codes.all_codes(spec, k1)
    taus = taus.take(codes.lookup(codes.keys(spec, lam), codes.keys(spec, taus)) < 0)
    tau_codes = WordCodes(spec, (taus,), (np.arange(len(taus.a)),))
    log_eps = _log_epsilon(spec, consts, j, tau_codes)
    eps, which = np.unique(log_eps, return_inverse=True)
    pairs = _gamma_pairs(spec, pw, k1, eps, cap)
    fam_size = np.bincount(pairs.family, minlength=len(eps))
    fam_start = np.cumsum(fam_size) - fam_size
    logs = np.split(pairs.log_w, fam_start[1:])
    defects = [abs(math.fsum(map(math.exp, lw.tolist())) - 1.0) for lw in logs]
    sizes = fam_size[which]
    total = len(lam.a) + int(sizes.sum())
    if total > cap:
        raise CapExceeded(cap, total, "glued level")

    # glued word i of l1 (past the slice) is anchor tau[i] followed by pair[i]
    tau = np.repeat(np.arange(len(taus.a)), sizes)
    glued = np.arange(len(tau))
    pair = glued + np.repeat(fam_start[which] - (np.cumsum(sizes) - sizes), sizes)
    depth, n_cells = pairs.depth[pair], pairs.cells[pair]
    bad = pairs.cells + ell(spec, k1) != [ell(spec, k1 + d) for d in pairs.depth.tolist()]
    misfit = None
    if bad.any():
        i = int(np.argmax(bad[pair]))
        p, d, ns = int(pair[i]), int(depth[i]), int(n_cells[i])
        cells, rows = codes.decode(spec, Block(d, pairs.a[p : p + 1], pairs.b[p : p + 1]), ns)[0]
        head = codes.decode(spec, taus.take(tau[i : i + 1]))[0]
        misfit = Word(head.a + cells, head.b + rows)
    parts: dict[int, list[tuple[Block, np.ndarray]]] = {k1: [(lam, np.arange(len(lam.a)))]}
    for d, ns in sorted(set(zip(pairs.depth.tolist(), pairs.cells.tolist()))):
        sel = np.flatnonzero((depth == d) & (n_cells == ns))
        dt = codes.code_dtype(spec, k1 + d)
        a = taus.a[tau[sel]].astype(dt) * g**ns + pairs.a[pair[sel]].astype(dt)
        b = taus.b[tau[sel]].astype(dt) * m ** (d - ns) + pairs.b[pair[sel]].astype(dt)
        parts.setdefault(k1 + d, []).append((Block(k1 + d, a, b), len(lam.a) + glued[sel]))
    l1 = WordCodes(
        spec,
        tuple(codes.join(spec, k, [blk for blk, _ in parts[k]]) for k in sorted(parts)),
        tuple(np.concatenate([p for _, p in parts[k]]) for k in sorted(parts)),
    )

    member = {blk.k: np.unique(codes.keys(spec, blk)) for blk in l1.blocks}
    l1_distinct = sum(len(v) for v in member.values()) == len(l1)
    core: dict[int, list[Block]] = {}
    for blk in l1.blocks:
        top, chain = _member_ancestors(spec, blk, member, k1)
        for k in np.unique(top).tolist():
            core.setdefault(k, []).append(chain[k].take(top == k))
    l2_blocks = []
    for k in sorted(core):
        blk = codes.join(spec, k, core[k])
        l2_blocks.append(blk.take(np.unique(codes.keys(spec, blk), return_index=True)[1]))
    l2, _ = WordCodes.from_blocks(spec, l2_blocks)
    return L1L2Result(
        k1=k1,
        l1_codes=l1,
        l2_codes=l2,
        tau_count=len(taus.a),
        gamma_sizes=tuple(sizes.tolist()),
        gamma_defects=tuple(defects[u] for u in which.tolist()),
        l1_distinct=l1_distinct,
        l1_misfit=misfit,
    )


@dataclass(frozen=True)
class CertificateCheck:
    """One certified comparison: value OP bound, with a witness on failure."""

    j: int
    name: str
    value: float
    op: str
    bound: float
    passed: bool
    witness: str = ""


@dataclass(frozen=True, eq=False)
class JCertificate:
    """The construction sizes at one threshold level and its checks.

    Every certified number lives only in its check row; read it through check().
    """

    j: int
    psi: int
    k1: int
    k2: int
    phi: int
    checks: tuple[CertificateCheck, ...]

    def check(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Certificates for a run of threshold levels plus the cross-level laws."""

    certificates: tuple[JCertificate, ...]
    cross_checks: tuple[CertificateCheck, ...]

    @property
    def checks(self) -> tuple[CertificateCheck, ...]:
        """Every check: level by level, then the cross-level laws."""
        return tuple(c for jc in self.certificates for c in jc.checks) + self.cross_checks

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CertificateCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


def _check(
    j: int,
    name: str,
    value: float,
    op: str,
    bound: float,
    witness: Callable[[], Word] | None = None,
) -> CertificateCheck:
    """Decide value OP bound; a failed check names its witness word, found only then."""
    ok = bool(_OPS[op](value, bound))
    text = encode_word(witness()) if witness is not None and not ok else ""
    return CertificateCheck(
        j=j, name=name, value=float(value), op=op, bound=bound, passed=ok, witness=text
    )


def _scan(
    j: int, name: str, values: np.ndarray, op: str, bound: float, seq: WordCodes,
    at: np.ndarray | None = None,
) -> CertificateCheck:
    """Decide the extreme of values that fails first: the least for >=, the greatest for <= and <.

    The witness is the first word of ``seq`` at that extreme; where values
    covers only some words, entry i belongs to word at[i].
    """
    i = int(np.argmin(values) if op == ">=" else np.argmax(values))
    word = i if at is None else int(at[i])
    return _check(j, name, values[i], op, bound, partial(seq.word, word))


def _row_code_classes(words: WordCodes) -> tuple[WordCodes, np.ndarray]:
    """The first word of each (order, row code) class, canonical, and each one's index in ``words``.

    Below a word of order k, ``codes.expand`` picks the upgrade cells from its
    row code alone, and each energy increment depends only on the digits
    added; so the words of one class share one s2 family up to their cells:
    the same energy ratio, size and depth.  The indices increase when
    ``words`` is canonical.
    """
    firsts = [np.unique(blk.b, return_index=True)[1] for blk in words.blocks]
    blocks = [blk.take(first) for blk, first in zip(words.blocks, firsts)]
    return WordCodes.from_blocks(words.spec, blocks, [p[f] for p, f in zip(words.pos, firsts)])


def _first_repeat(words: WordCodes) -> Word:
    """The first word, in sequence order, that occurs more than once."""
    first = len(words)
    for blk, pos in zip(words.blocks, words.pos):
        _, inverse, counts = np.unique(
            codes.keys(words.spec, blk), return_inverse=True, return_counts=True
        )
        first = min(first, int(pos[counts[inverse] > 1].min(initial=first)))
    return words.word(first)


def certify(
    spec: CarpetSpec,
    consts: SpectralConstants,
    j_values: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> CertificateReport:
    """Run the full certificate suite over the given threshold levels.

    Every certified inequality is checked against its explicit constant;
    log-scale comparisons carry a 1e-11 roundoff allowance (a real violation
    is orders of magnitude larger).  Failures name the check and a witness.
    Each min/max scan is one rule (_scan): it runs over a whole array in
    word order, and its witness is the first word that attains the extreme.
    """
    j_list = sorted(set(int(j) for j in j_values))
    idx = derive_indices(spec)
    pw = product_weights(spec, consts)
    t = consts.t_r
    log_eta = math.log(consts.eta_lo)
    log_m = math.log(spec.m)
    log_pq = math.log(consts.P) - math.log(consts.Q)
    k_aligned = math.ceil(1.0 / idx.theta)

    certificates: list[JCertificate] = []
    psi_by_j: dict[int, int] = {}
    phi_by_j: dict[int, int] = {}

    for j in j_list:
        checks: list[CertificateCheck] = []
        add = checks.append

        ups = build_upsilon(spec, consts, j, cap=cap)
        members = ups.codes
        psi_by_j[j] = ups.psi
        lws = ups.log_w
        orders = members.orders()

        # weight band: eta^(j+1) <= weight < eta^j for every member
        add(_scan(j, "weight-band-lower", lws - (j + 1) * log_eta, ">=", 0.0, members))
        add(_scan(j, "weight-band-upper", lws - j * log_eta, "<", 0.0, members))

        # the members tile the carpet: cylinder masses sum to 1
        mass = math.fsum(map(math.exp, (lws + orders * consts.r * log_m).tolist()))
        add(_check(j, "mass-partition", abs(mass - 1.0), "<=", MASS_TOL))

        # total energy and member count against the overlap constant
        sum_energy = math.fsum(map(math.exp, (t * lws).tolist()))
        add(_check(j, "energy-sum", sum_energy, "<=", consts.H1))
        add(_check(j, "count-bound", ups.psi * math.exp((j + 1) * t * log_eta), "<=", consts.H1))

        # overlap family: W-mass ratio and order gap at every anchor
        log_wm = members.log_sum(pw.log_p_tilde, pw.log_q_tilde)
        w_mass = _exp(log_wm)
        scan = s1_scan(spec, members, w_mass)
        add(_scan(j, "s1-mass", scan.w_sum / w_mass, "<=", consts.H1 * (1.0 + LOG_SLACK), members))
        add(_check(j, "s1-gap", scan.gap.max(), "<=", float(consts.H1)))

        # embedding sandwich for members of aligned order
        aligned = np.flatnonzero(orders >= k_aligned)
        if len(aligned):
            gap = log_wm[aligned] - t * lws[aligned]
            add(_scan(j, "embed-sandwich-lower", gap, ">=", -LOG_SLACK, members, aligned))
            add(_scan(j, "embed-sandwich-upper", gap, "<=", log_pq + LOG_SLACK, members, aligned))

        # comparable-descendant family at every member, walked once per
        # (order, row code) class as the Gamma walk is once per quota; the
        # classes' first members run in word order, so the witness is the
        # first member, in word order, of a class at the maximum
        anchors, first = _row_code_classes(members)
        fam, owner = s2_family(spec, consts, anchors)
        e_fam = _exp(_log_energy(spec, consts, fam))[np.argsort(owner, kind="stable")]
        ends = np.cumsum(np.bincount(owner, minlength=len(anchors)))[:-1]
        sums = [math.fsum(e.tolist()) for e in np.split(e_fam, ends)]
        s2_ratios = np.array(sums) / _exp(_log_energy(spec, consts, anchors))
        s2_gap = np.max(fam.orders() - anchors.orders()[owner], initial=0)
        add(_scan(j, "s2-mass", s2_ratios, "<=", consts.H3 * (1.0 + LOG_SLACK), members, first))
        add(_check(j, "s2-gap", s2_gap, "<=", float(consts.M)))

        # multi-level construction
        res = build_l1_l2(spec, consts, ups, cap=cap)
        phi_by_j[j] = res.phi
        if res.gamma_defects:
            add(_check(j, "gamma-partition", max(res.gamma_defects), "<=", MASS_TOL))
        # witness: the first misshapen glued word, else the first repeated one
        shape_ok = res.l1_distinct and res.l1_misfit is None
        misfit = res.l1_misfit
        shape_wit = partial(_first_repeat, res.l1_codes) if misfit is None else lambda: misfit
        add(_check(j, "l1-shape", 0.0 if shape_ok else 1.0, "<=", 0.0, shape_wit))

        # energy band of the glued level
        e_lo = math.log(consts.Q) - 2.0 * math.log(consts.P) + (j + 1) * t * log_eta
        e_hi = log_pq + j * t * log_eta
        l1_energy = _log_energy(spec, consts, res.l1_codes)
        add(_scan(j, "l1-energy-lower", l1_energy - e_lo, ">=", -LOG_SLACK, res.l1_codes))
        add(_scan(j, "l1-energy-upper", l1_energy - e_hi, "<", LOG_SLACK, res.l1_codes))

        # the core is an antichain: no member is an ancestor of another
        core = res.l2_codes
        core_keys = {blk.k: codes.keys(spec, blk) for blk in core.blocks}
        nested = np.concatenate(
            [_member_ancestors(spec, blk, core_keys, res.k1)[0] < blk.k for blk in core.blocks]
        )
        add(_scan(j, "l2-antichain", nested * 1.0, "<=", 0.0, core))

        # core energy bracket and count band
        l2_energy = math.fsum(_exp(_log_energy(spec, consts, core)).tolist())
        s10_bound = consts.Q / (consts.H3 * consts.P)
        add(_check(j, "l2-energy-lower", l2_energy, ">=", s10_bound * (1.0 - LOG_SLACK)))
        add(_check(j, "l2-energy-upper", l2_energy, "<=", 1.0 + LOG_SLACK))
        count_lo = consts.H5 * math.exp(-j * t * log_eta) * (1.0 - LOG_SLACK)
        count_hi = consts.H4 * math.exp(-(j + 1) * t * log_eta) * (1.0 + LOG_SLACK)
        add(_check(j, "count-band-lower", float(res.phi), ">=", count_lo))
        add(_check(j, "count-band-upper", float(res.phi), "<=", count_hi))

        certificates.append(
            JCertificate(
                j=j,
                psi=ups.psi,
                k1=members.blocks[0].k,
                k2=members.blocks[-1].k,
                phi=res.phi,
                checks=tuple(checks),
            )
        )

    # cross-level laws; psi-growth is decided in exact integers, because
    # (mn)^H1 leaves the float range at large r, where its bound prints as inf
    cross: list[CertificateCheck] = []
    growth = (spec.m * spec.n) ** consts.H1
    try:
        growth_factor = float(spec.m * spec.n) ** consts.H1
    except OverflowError:
        growth_factor = math.inf
    for j in j_list:
        if j + 1 in psi_by_j:
            a, b = psi_by_j[j], psi_by_j[j + 1]
            cross.append(_check(j, "psi-monotone", float(b), ">=", float(a)))
            bound = growth_factor * a
            cross.append(CertificateCheck(j, "psi-growth", float(b), "<=", bound, b <= growth * a))

    h6 = 1
    ratio_log = math.log(consts.H5) - math.log(consts.H4)
    while (h6 - 1) * t * log_eta >= ratio_log:
        h6 += 1
    h7 = (consts.H4 / consts.H5) * math.exp(-(h6 + 1) * t * log_eta)
    for j in j_list:
        if j + h6 in phi_by_j:
            lo, hi = phi_by_j[j], phi_by_j[j + h6]
            cross.append(_check(j, "phi-growth-strict", float(hi), ">=", float(lo + 1)))
            cross.append(_check(j, "phi-growth-cap", float(hi), "<=", h7 * lo))

    return CertificateReport(certificates=tuple(certificates), cross_checks=tuple(cross))
