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
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import codes
from .carpet import CarpetSpec, derive_indices
from .codes import Block, WordCodes
from .constants import SpectralConstants
from .product import (
    CylinderPair,
    EMPTY_PAIR,
    ProductWeights,
    embed,
    log_w_mass,
    product_weights,
    s1_scan,
    w_mass,
)
from .words import (
    Word,
    ell,
    ell_steps,
    encode_word,
    energy,
    log_energy,
    log_weight,
    order,
    step_table,
    validate_word,
)

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "BadTau",
    "Antichain",
    "OrderSlices",
    "GammaFamily",
    "L1L2Result",
    "CertificateCheck",
    "JCertificate",
    "CertificateReport",
    "build_upsilon",
    "slices",
    "s2_family",
    "build_gamma_tau",
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
    and ``log_weights`` decode them on first use.
    """

    j: int
    r: float
    kind: str
    codes: WordCodes = field(repr=False)
    log_w: np.ndarray = field(repr=False)

    @property
    def psi(self) -> int:
        return len(self.log_w)

    @property
    def words(self) -> tuple[Word, ...]:
        return self.codes.words

    @cached_property
    def log_weights(self) -> tuple[float, ...]:
        return tuple(self.log_w.tolist())


@dataclass(frozen=True, eq=False)
class OrderSlices:
    """The antichain split by word order; orders run k1..k2."""

    j: int
    k1: int
    k2: int
    by_order: tuple[tuple[int, tuple[Word, ...]], ...]

    def at(self, k: int) -> tuple[Word, ...]:
        for kk, ws in self.by_order:
            if kk == k:
                return ws
        return ()


@dataclass(frozen=True, eq=False)
class GammaFamily:
    """Per-anchor threshold family in the product space."""

    tau: Word
    log_epsilon: float
    pairs: tuple[CylinderPair, ...]
    log_w: tuple[float, ...]

    def partition_defect(self) -> float:
        return abs(math.fsum(math.exp(lw) for lw in self.log_w) - 1.0)


@dataclass(frozen=True, eq=False)
class L1L2Result:
    """Glued level (l1) and its non-overlapping core (l2), as word codes.

    ``l1_codes`` keeps the glued order: the antichain's minimum-order slice,
    then each anchor's family in anchor order.  ``l2_codes`` is canonical.
    ``l1_misfit`` is the first glued word whose shape is not a location code.
    """

    j: int
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
    step = np.array([lq + shift for _, lq in step_table(spec).rows])
    up = codes.tables(spec).up
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
        lw = lw[parent] if cell is None else lw[parent] + up[cell]
        lw = lw + step[row]
    members, perms = WordCodes.from_blocks(spec, [blk for blk, _ in found])
    log_w = np.concatenate([w[p] for (_, w), p in zip(found, perms)])
    return Antichain(j=j, r=consts.r, kind="weight-threshold", codes=members, log_w=log_w)


def slices(antichain: Antichain) -> OrderSlices:
    """Split the antichain by word order (a partition; orders run k1..k2)."""
    if not antichain.psi:
        raise ValueError("cannot slice an empty antichain")
    words, blocks = antichain.words, antichain.codes.blocks
    by_order, start = [], 0
    for blk in blocks:
        by_order.append((blk.k, words[start : start + len(blk.a)]))
        start += len(blk.a)
    return OrderSlices(j=antichain.j, k1=blocks[0].k, k2=blocks[-1].k, by_order=tuple(by_order))


def s2_family(
    spec: CarpetSpec, consts: SpectralConstants, sigma: Word
) -> list[Word]:
    """Descendants of sigma whose energy stays within a factor H2 of sigma's.

    Energy decreases strictly along refinement, so the family is a finite
    subtree; its members span at most M extra orders and their energies sum
    to at most H3 times sigma's.
    """
    t = consts.t_r
    base = log_energy(spec, consts, sigma)
    cut = base - math.log(consts.H2)
    out: list[Word] = []
    stack: list[tuple[Word, float]] = [(sigma, base)]
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


def _gamma_pairs(
    spec: CarpetSpec, pw: ProductWeights, k1: int, log_eps: float, cap: int
) -> tuple[list[CylinderPair], list[float]]:
    """Aligned pairs (offset k1) collected the first time their W mass drops below epsilon."""
    pairs: list[CylinderPair] = []
    logs: list[float] = []
    rows = step_table(spec).rows
    cells = tuple((i, jj) for i, jj, _ in spec.entries)
    stack: list[tuple[CylinderPair, float]] = [(EMPTY_PAIR, 0.0)]
    while stack:
        c, lw = stack.pop()
        if lw < log_eps:
            pairs.append(c)
            logs.append(lw)
            if len(pairs) > cap:
                raise CapExceeded(cap, len(pairs), "per-anchor threshold family")
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


def build_gamma_tau(
    spec: CarpetSpec,
    consts: SpectralConstants,
    pw: ProductWeights,
    j: int,
    k1: int,
    tau: Word,
    cap: int = DEFAULT_CAP,
) -> GammaFamily:
    """Threshold family of cylinder pairs below the anchor's energy quota.

    The anchor must be an order-k1 word still above the level-j antichain.
    Pairs grow by aligned steps (offset k1); a pair is collected the first
    time its W mass drops below epsilon = eta_lo^(j t) / energy(tau).  The
    collected family W-partitions the whole product space.
    """
    validate_word(spec, tau)
    if order(tau) != k1:
        raise BadTau(f"anchor must have order {k1}, got {order(tau)}")
    log_eps = _log_epsilon(spec, consts, j, tau)
    pairs, logs = _gamma_pairs(spec, pw, k1, log_eps, cap)
    return GammaFamily(tau=tau, log_epsilon=log_eps, pairs=tuple(pairs), log_w=tuple(logs))


def _log_epsilon(spec: CarpetSpec, consts: SpectralConstants, j: int, tau: Word) -> float:
    """log of the anchor's quota eta_lo^(j t) / energy(tau); BadTau below the threshold."""
    log_eta = math.log(consts.eta_lo)
    lw_tau = log_weight(spec, consts.r, tau)
    if lw_tau < j * log_eta:
        raise BadTau("anchor sits below the antichain threshold; no quota to fill")
    return j * consts.t_r * log_eta - consts.t_r * lw_tau


def glue(tau: Word, pair: CylinderPair) -> Word:
    """Concatenate an anchor word with a pair's blocks into one location code."""
    return Word(tau.a + pair.sigma, tau.b + pair.omega)


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
    word still above the threshold (in ``all_words`` order), its glued
    threshold family.  l2 keeps, for each l1 word, the topmost l1 word whose
    square contains it; the result is pairwise non-overlapping (containment
    between approximate squares coincides with flattening ancestry).  A
    family depends on its anchor only through epsilon, so each distinct
    epsilon is walked once.
    """
    members = upsilon.codes
    lam = members.blocks[0]
    j, k1 = upsilon.j, lam.k
    pw = product_weights(spec, consts)
    g, m = len(codes.tables(spec).cells), spec.m

    taus = codes.all_codes(spec, k1)
    taus = taus.take(codes.lookup(codes.keys(spec, lam), codes.keys(spec, taus)) < 0)
    tau_codes = WordCodes(spec, (taus,), (np.arange(len(taus.a)),))
    log_eps = tau_codes.values(partial(_log_epsilon, spec, consts, j))
    eps, first, which = np.unique(log_eps, return_index=True, return_inverse=True)
    families = {}
    for u in np.argsort(first, kind="stable").tolist():
        families[u] = _gamma_pairs(spec, pw, k1, float(eps[u]), cap)
    sizes = np.array([len(families[u][0]) for u in range(len(eps))], dtype=np.int64)[which]
    defects = [
        abs(math.fsum(math.exp(lw) for lw in families[u][1]) - 1.0) for u in range(len(eps))
    ]
    total = len(lam.a) + int(sizes.sum())
    if total > cap:
        raise CapExceeded(cap, total, "glued level")
    start = len(lam.a) + np.cumsum(sizes) - sizes

    parts: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {
        k1: [(lam.a, lam.b, np.arange(len(lam.a)))]
    }
    misfit = None
    for u, (pairs, _) in families.items():
        users = np.flatnonzero(which == u)
        n_cells = np.array([len(c.sigma) for c in pairs])
        depth = n_cells + np.array([len(c.omega) for c in pairs])
        a_sig, b_om = codes.encode(spec, pairs)
        shape_ok = n_cells + ell(spec, k1) == np.array([ell(spec, k1 + d) for d in depth.tolist()])
        # families run in order of first use, so the first misfit met is the first in l1
        if misfit is None and not shape_ok.all():
            tau = codes.decode(spec, taus.take(users[:1]))[0]
            misfit = glue(tau, pairs[int(np.argmin(shape_ok))])
        for d, ns in sorted(set(zip(depth.tolist(), n_cells.tolist()))):
            sel = np.flatnonzero((depth == d) & (n_cells == ns))
            dt = codes.code_dtype(spec, k1 + d)
            a = taus.a[users].astype(dt)[:, None] * g**ns + a_sig[sel].astype(dt)[None, :]
            b = taus.b[users].astype(dt)[:, None] * m ** (d - ns) + b_om[sel].astype(dt)[None, :]
            pos = start[users][:, None] + sel[None, :]
            parts.setdefault(k1 + d, []).append((a.ravel(), b.ravel(), pos.ravel()))
    blocks, pos = [], []
    for k in sorted(parts):
        dt = codes.code_dtype(spec, k)
        blocks.append(
            Block(k, *(np.concatenate([p[i].astype(dt) for p in parts[k]]) for i in (0, 1)))
        )
        pos.append(np.concatenate([p[2] for p in parts[k]]))
    l1 = WordCodes(spec, tuple(blocks), tuple(pos))

    member = {blk.k: np.unique(codes.keys(spec, blk)) for blk in l1.blocks}
    l1_distinct = sum(len(v) for v in member.values()) == len(l1)
    core: dict[int, list[Block]] = {}
    for blk in l1.blocks:
        top, chain = _member_ancestors(spec, blk, member, k1)
        for k in np.unique(top).tolist():
            core.setdefault(k, []).append(chain[k].take(top == k))
    l2_blocks = []
    for k in sorted(core):
        dt = codes.code_dtype(spec, k)
        blk = Block(k, *(np.concatenate([c[i].astype(dt) for c in core[k]]) for i in (1, 2)))
        l2_blocks.append(blk.take(np.unique(codes.keys(spec, blk), return_index=True)[1]))
    l2, _ = WordCodes.from_blocks(spec, l2_blocks)
    return L1L2Result(
        j=j,
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
    """Everything certified at one threshold level."""

    j: int
    psi: int
    k1: int
    k2: int
    sum_energy: float
    s1_max_ratio: float
    s1_max_gap: int
    s2_max_ratio: float
    s2_max_gap: int
    s2_samples: int
    sandwich_checked: int
    phi: int
    l1_count: int
    l2_energy: float
    checks: tuple[CertificateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Certificates for a run of threshold levels plus the cross-level laws."""

    r: float
    j_values: tuple[int, ...]
    certificates: tuple[JCertificate, ...]
    cross_checks: tuple[CertificateCheck, ...]
    h6: int
    h7: float

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

# Anchors of the comparable-descendant check, evenly spaced over each antichain.
S2_SAMPLES = 20


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


def _evenly_spaced(items: Sequence, count: int) -> list:
    if len(items) <= count:
        return list(items)
    stride = len(items) / count
    return [items[int(i * stride)] for i in range(count)]


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
    Each min/max scan runs over whole arrays in word order, and its witness
    is the first word that attains the extreme.
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

        def at(i: int, seq: WordCodes = members) -> Callable[[], Word]:
            return partial(seq.word, int(i))

        # weight band: eta^(j+1) <= weight < eta^j for every member
        lo_band = lws - (j + 1) * log_eta
        hi_band = lws - j * log_eta
        i_lo, i_hi = int(np.argmin(lo_band)), int(np.argmax(hi_band))
        add(_check(j, "weight-band-lower", lo_band[i_lo], ">=", 0.0, at(i_lo)))
        add(_check(j, "weight-band-upper", hi_band[i_hi], "<", 0.0, at(i_hi)))

        # the members tile the carpet: cylinder masses sum to 1
        mass = math.fsum(map(math.exp, (lws + orders * consts.r * log_m).tolist()))
        add(_check(j, "mass-partition", abs(mass - 1.0), "<=", MASS_TOL))

        # total energy and member count against the overlap constant
        sum_energy = math.fsum(map(math.exp, (t * lws).tolist()))
        add(_check(j, "energy-sum", sum_energy, "<=", consts.H1))
        add(_check(j, "count-bound", ups.psi * math.exp((j + 1) * t * log_eta), "<=", consts.H1))

        # overlap family: W-mass ratio and order gap at every anchor
        scan = s1_scan(spec, pw, members)
        ratio = scan.w_sum / members.values(lambda w: w_mass(pw, embed(w)))[scan.anchor]
        i_s1 = int(np.argmax(ratio))
        s1_max_ratio = float(ratio[i_s1])
        s1_max_gap = int(scan.gap.max())
        s1_wit = at(scan.anchor[i_s1])
        add(_check(j, "s1-mass", s1_max_ratio, "<=", consts.H1 * (1.0 + LOG_SLACK), s1_wit))
        add(_check(j, "s1-gap", float(s1_max_gap), "<=", float(consts.H1)))

        # embedding sandwich for members of aligned order
        aligned = np.flatnonzero(orders >= k_aligned)
        sandwich_checked = len(aligned)
        if sandwich_checked:
            lwm = members.values(lambda w: log_w_mass(pw, embed(w)))
            gap = lwm[aligned] - t * lws[aligned]
            i_lo, i_hi = int(np.argmin(gap)), int(np.argmax(gap))
            sw_lo, sw_hi = at(aligned[i_lo]), at(aligned[i_hi])
            add(_check(j, "embed-sandwich-lower", gap[i_lo], ">=", -LOG_SLACK, sw_lo))
            add(_check(j, "embed-sandwich-upper", gap[i_hi], "<=", log_pq + LOG_SLACK, sw_hi))

        # comparable-descendant family at sampled anchors
        sampled = [members.word(i) for i in _evenly_spaced(range(ups.psi), S2_SAMPLES)]
        s2_ratios: list[float] = []
        s2_gaps: list[int] = []
        for sigma in sampled:
            fam = s2_family(spec, consts, sigma)
            e_fam = math.fsum(energy(spec, consts, w) for w in fam)
            s2_ratios.append(e_fam / energy(spec, consts, sigma))
            s2_gaps.append(max(order(w) for w in fam) - order(sigma))
        i_s2 = max(range(len(sampled)), key=s2_ratios.__getitem__)
        s2_max_ratio, s2_max_gap = s2_ratios[i_s2], max(s2_gaps)
        s2_wit = sampled[i_s2]
        add(_check(j, "s2-mass", s2_max_ratio, "<=", consts.H3 * (1.0 + LOG_SLACK), lambda: s2_wit))
        add(_check(j, "s2-gap", float(s2_max_gap), "<=", float(consts.M)))

        # multi-level construction
        res = build_l1_l2(spec, consts, ups, cap=cap)
        phi_by_j[j] = res.phi
        if res.gamma_defects:
            add(_check(j, "gamma-partition", max(res.gamma_defects), "<=", MASS_TOL))
        shape_ok = res.l1_distinct and res.l1_misfit is None
        misfit = res.l1_misfit
        add(_check(j, "l1-shape", 0.0 if shape_ok else 1.0, "<=", 0.0, misfit and (lambda: misfit)))

        # energy band of the glued level
        e_lo = math.log(consts.Q) - 2.0 * math.log(consts.P) + (j + 1) * t * log_eta
        e_hi = log_pq + j * t * log_eta
        l1_energy = res.l1_codes.values(lambda w: log_energy(spec, consts, w))
        i_lo, i_hi = int(np.argmin(l1_energy)), int(np.argmax(l1_energy))
        l1_wit_lo, l1_wit_hi = at(i_lo, res.l1_codes), at(i_hi, res.l1_codes)
        add(_check(j, "l1-energy-lower", l1_energy[i_lo] - e_lo, ">=", -LOG_SLACK, l1_wit_lo))
        add(_check(j, "l1-energy-upper", l1_energy[i_hi] - e_hi, "<", LOG_SLACK, l1_wit_hi))

        # the core is an antichain: no member is an ancestor of another
        core = res.l2_codes
        core_keys = {blk.k: codes.keys(spec, blk) for blk in core.blocks}
        nested = np.concatenate(
            [_member_ancestors(spec, blk, core_keys, res.k1)[0] < blk.k for blk in core.blocks]
        )
        core_wit = at(np.argmax(nested), core) if nested.any() else None
        add(_check(j, "l2-antichain", 0.0 if core_wit is None else 1.0, "<=", 0.0, core_wit))

        # core energy bracket and count band
        l2_energy = math.fsum(core.values(lambda w: energy(spec, consts, w)).tolist())
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
                sum_energy=sum_energy,
                s1_max_ratio=s1_max_ratio,
                s1_max_gap=s1_max_gap,
                s2_max_ratio=s2_max_ratio,
                s2_max_gap=s2_max_gap,
                s2_samples=len(sampled),
                sandwich_checked=sandwich_checked,
                phi=res.phi,
                l1_count=len(res.l1_codes),
                l2_energy=l2_energy,
                checks=tuple(checks),
            )
        )

    # cross-level laws
    cross: list[CertificateCheck] = []
    growth_factor = float(spec.m * spec.n) ** consts.H1
    for j in j_list:
        if j + 1 in psi_by_j:
            a, b = psi_by_j[j], psi_by_j[j + 1]
            cross.append(_check(j, "psi-monotone", float(b), ">=", float(a)))
            cross.append(_check(j, "psi-growth", float(b), "<=", growth_factor * a))

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

    return CertificateReport(
        r=consts.r,
        j_values=tuple(j_list),
        certificates=tuple(certificates),
        cross_checks=tuple(cross),
        h6=h6,
        h7=h7,
    )
