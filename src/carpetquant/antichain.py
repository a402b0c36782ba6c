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
from typing import Iterable, Iterator, Sequence

from .carpet import CarpetSpec, derive_indices
from .constants import SpectralConstants
from .product import (
    CylinderPair,
    EMPTY_PAIR,
    ProductWeights,
    embed,
    log_w_mass,
    product_weights,
    s1_scan,
)
from .words import (
    ROOT,
    Word,
    all_words,
    ell_steps,
    encode_word,
    energy,
    flatten,
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
    """A finite maximal antichain of words, with cached log weights."""

    j: int
    r: float
    kind: str
    words: tuple[Word, ...]
    log_weights: tuple[float, ...] = field(repr=False)

    @property
    def psi(self) -> int:
        return len(self.words)


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
    """Glued level (l1) and its non-overlapping core (l2)."""

    j: int
    k1: int
    lambda_words: tuple[Word, ...]
    l1: tuple[Word, ...]
    l2: tuple[Word, ...]
    tau_count: int
    gamma_sizes: tuple[int, ...]
    gamma_defects: tuple[float, ...]
    l1_distinct: bool

    @property
    def phi(self) -> int:
        return len(self.l2)


def build_upsilon(
    spec: CarpetSpec,
    consts: SpectralConstants,
    j: int,
    cap: int = DEFAULT_CAP,
) -> Antichain:
    """Collect every word whose weight first drops below eta_lo^j.

    Depth-first refinement from the root; a word is collected the first time
    its log weight falls below j*log(eta_lo), and refined while it is still
    >= the threshold (ties refine).  The result is sorted canonically by
    (order, cells, row digits).
    """
    if j < 0:
        raise ValueError(f"threshold level must be >= 0, got {j}")
    threshold = j * math.log(consts.eta_lo)
    rows, upgrades = step_table(spec)
    shift = -consts.r * math.log(spec.m)
    flat = tuple((jj, lq + shift) for jj, lq in rows)
    out_words: list[Word] = []
    out_logw: list[float] = []
    stack: list[tuple[tuple, tuple, float]] = [(ROOT.a, ROOT.b, 0.0)]
    while stack:
        a, b, lw = stack.pop()
        if lw < threshold:
            out_words.append(Word(a, b))
            out_logw.append(lw)
            if len(out_words) > cap:
                raise CapExceeded(cap, len(out_words), "weight-threshold antichain")
            continue
        if ell_steps(spec, len(a) + len(b)):
            j_head = b[0]
            tail = b[1:]
            for i, up in upgrades[j_head]:
                a2 = a + ((i, j_head),)
                for jj, step in flat:
                    stack.append((a2, tail + (jj,), lw + up + step))
        else:
            for jj, step in flat:
                stack.append((a, b + (jj,), lw + step))
    paired = sorted(zip(out_words, out_logw), key=lambda t: (order(t[0]), t[0].a, t[0].b))
    words = tuple(w for w, _ in paired)
    logw = tuple(lw for _, lw in paired)
    return Antichain(j=j, r=consts.r, kind="weight-threshold", words=words, log_weights=logw)


def slices(antichain: Antichain) -> OrderSlices:
    """Split the antichain by word order (a partition; orders run k1..k2)."""
    if not antichain.words:
        raise ValueError("cannot slice an empty antichain")
    groups: dict[int, list[Word]] = {}
    for w in antichain.words:
        groups.setdefault(order(w), []).append(w)
    ks = sorted(groups)
    return OrderSlices(
        j=antichain.j,
        k1=ks[0],
        k2=ks[-1],
        by_order=tuple((k, tuple(groups[k])) for k in ks),
    )


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
    log_eta = math.log(consts.eta_lo)
    lw_tau = log_weight(spec, consts.r, tau)
    if lw_tau < j * log_eta:
        raise BadTau("anchor sits below the antichain threshold; no quota to fill")
    log_eps = j * consts.t_r * log_eta - consts.t_r * lw_tau
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
    return GammaFamily(tau=tau, log_epsilon=log_eps, pairs=tuple(pairs), log_w=tuple(logs))


def _ancestors(spec: CarpetSpec, w: Word, k_min: int) -> Iterator[Word]:
    """The proper ancestors of w down to order k_min, nearest first."""
    while order(w) > k_min:
        w = flatten(spec, w)
        yield w


def glue(tau: Word, pair: CylinderPair) -> Word:
    """Concatenate an anchor word with a pair's blocks into one location code."""
    return Word(tau.a + pair.sigma, tau.b + pair.omega)


def build_l1_l2(
    spec: CarpetSpec,
    consts: SpectralConstants,
    upsilon: Antichain,
    cap: int = DEFAULT_CAP,
) -> L1L2Result:
    """Glue per-anchor families into one level, then thin to the core.

    l1 = the antichain's own minimum-order slice plus, for every order-k1
    word still above the threshold, its glued threshold family.  l2 keeps,
    for each l1 word, the topmost l1 word whose square contains it; the
    result is pairwise non-overlapping (containment between approximate
    squares coincides with flattening ancestry).
    """
    sl = slices(upsilon)
    j, k1 = upsilon.j, sl.k1
    lam = sl.at(k1)
    lam_set = set(lam)
    pw = product_weights(spec, consts)
    l1: list[Word] = list(lam)
    gamma_sizes: list[int] = []
    gamma_defects: list[float] = []
    tau_count = 0
    for tau in all_words(spec, k1):
        if tau in lam_set:
            continue
        tau_count += 1
        fam = build_gamma_tau(spec, consts, pw, j, k1, tau, cap=cap)
        gamma_sizes.append(len(fam.pairs))
        gamma_defects.append(fam.partition_defect())
        for pair in fam.pairs:
            l1.append(glue(tau, pair))
            if len(l1) > cap:
                raise CapExceeded(cap, len(l1), "glued level")
    member = set(l1)
    l1_distinct = len(member) == len(l1)
    core: set[Word] = set()
    for rho in l1:
        best = rho
        for w in _ancestors(spec, rho, k1):
            if w in member:
                best = w
        core.add(best)
    l2 = tuple(sorted(core, key=lambda w: (order(w), w.a, w.b)))
    return L1L2Result(
        j=j,
        k1=k1,
        lambda_words=lam,
        l1=tuple(l1),
        l2=l2,
        tau_count=tau_count,
        gamma_sizes=tuple(gamma_sizes),
        gamma_defects=tuple(gamma_defects),
        l1_distinct=l1_distinct,
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


def _check(
    j: int, name: str, value: float, op: str, bound: float, witness: Word | None = None
) -> CertificateCheck:
    """Decide value OP bound; a failed check names its witness word."""
    ok = bool(_OPS[op](value, bound))
    text = encode_word(witness) if witness is not None and not ok else ""
    return CertificateCheck(
        j=j, name=name, value=value, op=op, bound=bound, passed=ok, witness=text
    )


def _extremes(items: Iterable[tuple[float, Word]]) -> tuple[float, Word | None, float, Word | None]:
    """(min, its word, max, its word) in one pass; ties keep the earliest word."""
    lo, hi = math.inf, -math.inf
    lo_w = hi_w = None
    for value, w in items:
        if value < lo:
            lo, lo_w = value, w
        if value > hi:
            hi, hi_w = value, w
    return lo, lo_w, hi, hi_w


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
    s2_samples: int = 20,
) -> CertificateReport:
    """Run the full certificate suite over the given threshold levels.

    Every certified inequality is checked against its explicit constant;
    log-scale comparisons carry a 1e-11 roundoff allowance (a real violation
    is orders of magnitude larger).  Failures name the check and a witness.
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
        sl = slices(ups)
        psi_by_j[j] = ups.psi

        # weight band: eta^(j+1) <= weight < eta^j for every member
        lo_b, hi_b = (j + 1) * log_eta, j * log_eta
        lws = ups.log_weights
        worst_lo, wit_lo, _, _ = _extremes((lw - lo_b, w) for lw, w in zip(lws, ups.words))
        _, _, worst_hi, wit_hi = _extremes((lw - hi_b, w) for lw, w in zip(lws, ups.words))
        add(_check(j, "weight-band-lower", worst_lo, ">=", 0.0, wit_lo))
        add(_check(j, "weight-band-upper", worst_hi, "<", 0.0, wit_hi))

        # the members tile the carpet: cylinder masses sum to 1
        mass = math.fsum(
            math.exp(lw + order(w) * consts.r * log_m) for lw, w in zip(lws, ups.words)
        )
        add(_check(j, "mass-partition", abs(mass - 1.0), "<=", MASS_TOL))

        # total energy and member count against the overlap constant
        sum_energy = math.fsum(math.exp(t * lw) for lw in lws)
        add(_check(j, "energy-sum", sum_energy, "<=", consts.H1))
        add(_check(j, "count-bound", ups.psi * math.exp((j + 1) * t * log_eta), "<=", consts.H1))

        # overlap family: W-mass ratio and order gap at every anchor
        scan = s1_scan(spec, pw, ups.words, sl.k1)
        _, _, s1_max_ratio, s1_wit = _extremes(
            (w_sum / math.exp(log_w_mass(pw, embed(anchor))), anchor)
            for anchor, (w_sum, _) in scan.items()
        )
        s1_max_gap = max(gap for _, gap in scan.values())
        add(_check(j, "s1-mass", s1_max_ratio, "<=", consts.H1 * (1.0 + LOG_SLACK), s1_wit))
        add(_check(j, "s1-gap", float(s1_max_gap), "<=", float(consts.H1)))

        # embedding sandwich for members of aligned order
        sandwich_checked = sum(order(w) >= k_aligned for w in ups.words)
        if sandwich_checked:
            sw_min, sw_wit_lo, sw_max, sw_wit_hi = _extremes(
                (log_w_mass(pw, embed(w)) - t * lw, w)
                for lw, w in zip(lws, ups.words)
                if order(w) >= k_aligned
            )
            add(_check(j, "embed-sandwich-lower", sw_min, ">=", -LOG_SLACK, sw_wit_lo))
            add(_check(j, "embed-sandwich-upper", sw_max, "<=", log_pq + LOG_SLACK, sw_wit_hi))

        # comparable-descendant family at sampled anchors
        sampled = _evenly_spaced(ups.words, s2_samples)
        s2_stats: list[tuple[float, Word, int]] = []
        for sigma in sampled:
            fam = s2_family(spec, consts, sigma)
            ratio = math.fsum(energy(spec, consts, w) for w in fam) / energy(spec, consts, sigma)
            s2_stats.append((ratio, sigma, max(order(w) for w in fam) - order(sigma)))
        _, _, s2_max_ratio, s2_wit = _extremes((ratio, sigma) for ratio, sigma, _ in s2_stats)
        s2_max_gap = max(gap for _, _, gap in s2_stats)
        add(_check(j, "s2-mass", s2_max_ratio, "<=", consts.H3 * (1.0 + LOG_SLACK), s2_wit))
        add(_check(j, "s2-gap", float(s2_max_gap), "<=", float(consts.M)))

        # multi-level construction
        res = build_l1_l2(spec, consts, ups, cap=cap)
        phi_by_j[j] = res.phi
        if res.gamma_defects:
            add(_check(j, "gamma-partition", max(res.gamma_defects), "<=", MASS_TOL))
        bad_shape = None
        for w in res.l1:
            try:
                validate_word(spec, w)
            except ValueError:
                bad_shape = w
                break
        shape_ok = res.l1_distinct and bad_shape is None
        add(_check(j, "l1-shape", 0.0 if shape_ok else 1.0, "<=", 0.0, bad_shape))

        # energy band of the glued level
        e_lo = math.log(consts.Q) - 2.0 * math.log(consts.P) + (j + 1) * t * log_eta
        e_hi = log_pq + j * t * log_eta
        l1_lo, l1_wit_lo, l1_hi, l1_wit_hi = _extremes(
            (log_energy(spec, consts, w), w) for w in res.l1
        )
        add(_check(j, "l1-energy-lower", l1_lo - e_lo, ">=", -LOG_SLACK, l1_wit_lo))
        add(_check(j, "l1-energy-upper", l1_hi - e_hi, "<", LOG_SLACK, l1_wit_hi))

        # the core is an antichain: no member is an ancestor of another
        core_set = set(res.l2)
        core_wit = next(
            (rho for rho in res.l2 if any(w in core_set for w in _ancestors(spec, rho, res.k1))),
            None,
        )
        add(_check(j, "l2-antichain", 0.0 if core_wit is None else 1.0, "<=", 0.0, core_wit))

        # core energy bracket and count band
        l2_energy = math.fsum(energy(spec, consts, w) for w in res.l2)
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
                k1=sl.k1,
                k2=sl.k2,
                sum_energy=sum_energy,
                s1_max_ratio=s1_max_ratio,
                s1_max_gap=s1_max_gap,
                s2_max_ratio=s2_max_ratio,
                s2_max_gap=s2_max_gap,
                s2_samples=len(sampled),
                sandwich_checked=sandwich_checked,
                phi=res.phi,
                l1_count=len(res.l1),
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
