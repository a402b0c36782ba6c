import collections
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import carpetquant as cq
from carpetquant import Word, codes
from carpetquant.antichain import _evenly_spaced, _log_epsilon
from reference_walks import (
    CylinderPair,
    energy,
    gamma_families,
    glue,
    order,
    pair_order,
    rect,
    reference_all_words,
    reference_gamma_pairs,
    reference_log_epsilon,
    reference_product_weights,
    reference_s2_family,
    s2_families,
    validate_word,
    word_codes,
)


def test_upsilon_j0(desk1, consts2, upsilon):
    ups = upsilon(0)
    assert ups.psi == 2
    assert ups.words == (Word((), (0,)), Word((), (1,)))
    assert ups.log_w[0] == pytest.approx(math.log(0.4 * 0.25), rel=1e-12)


def test_upsilon_weight_band(desk1, consts2, upsilon):
    log_eta = math.log(consts2.eta_lo)
    for j in range(0, 6):
        ups = upsilon(j)
        for lw in ups.log_w.tolist():
            assert (j + 1) * log_eta <= lw < j * log_eta


def test_upsilon_mass_partition(desk1, consts2, upsilon):
    log_m = math.log(desk1.m)
    for j in range(0, 6):
        ups = upsilon(j)
        mass = math.fsum(
            math.exp(lw + order(w) * 2.0 * log_m)
            for w, lw in zip(ups.words, ups.log_w.tolist())
        )
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_upsilon_energy_bound(desk1, consts2, upsilon):
    for j in range(0, 6):
        ups = upsilon(j)
        total = math.fsum(math.exp(consts2.t_r * lw) for lw in ups.log_w.tolist())
        assert total <= consts2.H1


def test_upsilon_is_antichain(desk1, upsilon):
    ups = upsilon(3)
    for w1, w2 in itertools.combinations(ups.words, 2):
        s1, s2 = rect(desk1, w1), rect(desk1, w2)
        assert not s1.contains(s2) and not s2.contains(s1)


def test_upsilon_growth(upsilon, desk1, consts2):
    grow = float(desk1.m * desk1.n) ** consts2.H1
    for j in range(0, 5):
        a, b = upsilon(j).psi, upsilon(j + 1).psi
        assert a <= b <= grow * a


def test_upsilon_rejects_negative_j(desk1, consts2):
    with pytest.raises(ValueError):
        cq.build_upsilon(desk1, consts2, -1)


def test_upsilon_cap(desk1, consts2):
    with pytest.raises(cq.CapExceeded) as err:
        cq.build_upsilon(desk1, consts2, 4, cap=100)
    assert err.value.cap == 100
    assert err.value.at_least > 100


def test_slices(desk1, upsilon):
    ups = upsilon(2)
    blocks = ups.codes.blocks
    by_order = [(blk.k, codes.decode(desk1, blk)) for blk in blocks]
    assert (blocks[0].k, blocks[-1].k) == (3, 4)
    orders = sorted({order(w) for w in ups.words})
    assert [k for k, _ in by_order] == orders
    assert sum(len(ws) for _, ws in by_order) == ups.psi
    assert all(order(w) == k for k, ws in by_order for w in ws)


def test_s2_family_contains_anchor_and_respects_bounds(desk1, consts2):
    anchors = [Word((), (0,)), Word(((1, 1),), (0, 1)), Word(((2, 1), (0, 0)), (1, 0))]
    for sigma, fam in zip(anchors, s2_families(desk1, consts2, anchors)):
        assert sigma in fam
        e_sigma = energy(desk1, consts2, sigma)
        total = math.fsum(energy(desk1, consts2, w) for w in fam)
        assert total <= consts2.H3 * e_sigma
        assert max(order(w) for w in fam) - order(sigma) <= consts2.M
        # every member's energy clears the cut, and every member descends from sigma
        for w in fam:
            assert energy(desk1, consts2, w) >= e_sigma / consts2.H2 * (1 - 1e-11)
            assert rect(desk1, sigma).contains(rect(desk1, w))


TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}


@pytest.mark.parametrize("config, r", [("desk1", 1.0), ("desk1", 2.0), ("tie", 1.0)])
@pytest.mark.parametrize("j", [2, 3, 4])
def test_s2_family_matches_reference_walk(desk1, config, r, j):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    consts = cq.constants(spec, r)
    ups = cq.build_upsilon(spec, consts, j)
    sampled = _evenly_spaced(ups.words, 20)
    # energy falls along refinement, so pruning below the cut loses no member
    want = [reference_s2_family(spec, consts, sigma) for sigma in sampled]
    assert s2_families(spec, consts, sampled) == want


def k1_slice(ups):
    """The order and the words of the antichain's minimum-order slice."""
    k1 = ups.codes.blocks[0].k
    return k1, [w for w in ups.words if order(w) == k1]


def test_gamma_tau_partition(desk1, consts2, pw2, upsilon):
    k1, lam = k1_slice(upsilon(2))
    taus = [tau for tau in reference_all_words(desk1, k1) if tau not in lam]
    eps = _log_epsilon(desk1, consts2, 2, word_codes(desk1, taus))
    for pairs, log_w in gamma_families(desk1, pw2, k1, eps):
        assert abs(math.fsum(math.exp(lw) for lw in log_w) - 1.0) <= 1e-12
        assert len(pairs) == len(set(pairs))
    assert len(taus) > 0


def test_gamma_tau_rejects_bad_anchor(desk1, consts2, pw2, upsilon):
    _, lam = k1_slice(upsilon(2))
    with pytest.raises(cq.BadTau):
        below = lam[0]  # an antichain member is already below threshold
        _log_epsilon(desk1, consts2, 2, word_codes(desk1, [below]))


def test_glue_orders(desk1, consts2, pw2, upsilon):
    # past the minimum-order slice, l1 holds each anchor glued to its family's pairs
    k1, lam = k1_slice(upsilon(2))
    taus = [t for t in reference_all_words(desk1, k1) if t not in lam]
    eps = [reference_log_epsilon(desk1, consts2, 2, tau) for tau in taus]
    glued = [
        (tau, pair)
        for tau, (pairs, _) in zip(taus, gamma_families(desk1, pw2, k1, eps))
        for pair in pairs
    ]
    l1 = cq.build_l1_l2(desk1, consts2, upsilon(2)).l1
    assert list(l1[len(lam) :]) == [glue(tau, pair) for tau, pair in glued]
    for w, (_, pair) in zip(l1[len(lam) :], glued):
        assert order(w) == k1 + pair_order(pair)
        validate_word(desk1, w)


def test_l1_l2_structure(desk1, consts2, upsilon):
    res = cq.build_l1_l2(desk1, consts2, upsilon(2))
    assert res.k1 == 3
    assert len(res.l1) == 32
    assert res.phi == 30
    assert res.l1_distinct
    assert set(res.l2) <= set(res.l1)
    assert max(res.gamma_defects) <= 1e-12
    for w in res.l1:
        validate_word(desk1, w)


def test_l2_pairwise_non_overlapping(desk1, consts2, upsilon):
    for j in (2, 3):
        res = cq.build_l1_l2(desk1, consts2, upsilon(j))
        squares = [rect(desk1, w) for w in res.l2]
        for s1, s2 in itertools.combinations(squares, 2):
            assert not s1.overlaps_interior(s2)


def test_l2_energy_and_count_bands(desk1, consts2, upsilon):
    t = consts2.t_r
    log_eta = math.log(consts2.eta_lo)
    for j in (2, 3, 4):
        res = cq.build_l1_l2(desk1, consts2, upsilon(j))
        total = math.fsum(
            energy(desk1, consts2, w) for w in res.l2
        )
        assert total >= consts2.Q / (consts2.H3 * consts2.P)
        assert total <= 1.0
        assert res.phi >= consts2.H5 * math.exp(-j * t * log_eta) * (1 - 1e-11)
        assert res.phi <= consts2.H4 * math.exp(-(j + 1) * t * log_eta) * (1 + 1e-11)


def test_certify_all_pass(desk1, consts2):
    report = cq.certify(desk1, consts2, range(0, 7))
    assert report.all_pass
    assert report.failures == ()
    names = {c.name for jc in report.certificates for c in jc.checks}
    assert {
        "weight-band-lower",
        "weight-band-upper",
        "mass-partition",
        "energy-sum",
        "s1-mass",
        "s2-mass",
        "l1-shape",
        "l2-antichain",
        "count-band-lower",
        "count-band-upper",
    } <= names
    cross = {c.name for c in report.cross_checks}
    assert {"psi-monotone", "psi-growth", "phi-growth-strict", "phi-growth-cap"} <= cross


def test_certify_reports_tampered_constants(desk1, consts2):
    # shrinking H1 to 1 must trip the overlap-mass certificate at j=2
    broken = dataclasses.replace(consts2, H1=1)
    report = cq.certify(desk1, broken, [2])
    assert not report.all_pass
    failed = {c.name for c in report.failures}
    assert "s1-mass" in failed
    s1 = next(c for c in report.failures if c.name == "s1-mass")
    assert s1.witness != ""


def test_certify_reports_tampered_count_band(desk1, consts2):
    broken = dataclasses.replace(consts2, H4=1e-9)
    report = cq.certify(desk1, broken, [2])
    failed = {c.name for c in report.failures}
    assert "count-band-upper" in failed


def test_certificate_accessor(desk1, consts2, upsilon):
    report = cq.certify(desk1, consts2, [2])
    cert = report.certificates[0]
    chk = cert.check("energy-sum")
    sum_energy = math.fsum(math.exp(consts2.t_r * lw) for lw in upsilon(2).log_w.tolist())
    assert chk.passed and chk.value == pytest.approx(sum_energy)
    with pytest.raises(KeyError):
        cert.check("no-such-check")


def test_certify_names_a_misshapen_glued_word(desk1, consts2, monkeypatch):
    walk = cq.antichain._gamma_pairs
    g, cell = len(cq.derive_indices(desk1).cells), cq.derive_indices(desk1).cells.index((0, 0))

    def misshape(spec, pw, k1, log_eps, cap):
        # in each family, the first pair with row digits trades its last one
        # for a cell: same depth, wrong shape
        pairs = walk(spec, pw, k1, log_eps, cap)
        a, b, cells = pairs.a.copy(), pairs.b.copy(), pairs.cells.copy()
        for u in range(len(log_eps)):
            rows = np.flatnonzero((pairs.family == u) & (pairs.depth > pairs.cells))
            if rows.size:
                i = rows[0]
                a[i], b[i], cells[i] = a[i] * g + cell, b[i] // spec.m, cells[i] + 1
        return pairs._replace(a=a, b=b, cells=cells)

    def reference_misshape(spec, pw, k1, log_eps, cap):
        pairs, logs = reference_gamma_pairs(spec, pw, k1, log_eps, cap)
        for i, c in enumerate(pairs):
            if c.omega:
                pairs[i] = CylinderPair(c.sigma + ((0, 0),), c.omega[:-1])
                break
        return pairs, logs

    monkeypatch.setattr(cq.antichain, "_gamma_pairs", misshape)
    j = 5  # the first level whose families hold pairs with row digits
    k1, lam = k1_slice(cq.build_upsilon(desk1, consts2, j))
    pw = reference_product_weights(desk1, consts2)
    glued = (
        glue(tau, pair)
        for tau in reference_all_words(desk1, k1)
        if tau not in lam
        for pair in reference_misshape(
            desk1, pw, k1, reference_log_epsilon(desk1, consts2, j, tau), 10**6
        )[0]
    )
    first_bad = next(w for w in glued if len(w.a) != cq.ell(desk1, order(w)))
    shape = cq.certify(desk1, consts2, [j]).certificates[0].check("l1-shape")
    assert not shape.passed
    assert shape.witness == cq.encode_word(first_bad)


def test_certify_names_a_word_from_a_misstepped_pair_walk(desk1, consts2, monkeypatch):
    # the pair walk follows the step rule of the next order, so its pairs gain
    # cells where they should gain row digits; j = 5 is the first level whose
    # families take a step where the two rules differ
    monkeypatch.setattr(cq.antichain, "ell_steps", lambda s, k: codes.ell_steps(s, k + 1))
    j = 5
    res = cq.build_l1_l2(desk1, consts2, cq.build_upsilon(desk1, consts2, j))
    misfit = res.l1_misfit
    assert misfit is not None and len(misfit.a) != cq.ell(desk1, order(misfit))
    shape = cq.certify(desk1, consts2, [j]).certificates[0].check("l1-shape")
    assert not shape.passed
    assert shape.witness == cq.encode_word(misfit)


def test_certify_names_a_repeated_glued_word(desk1, consts2, monkeypatch):
    walk = cq.antichain._gamma_pairs

    def repeat(spec, pw, k1, log_eps, cap):
        # in the first family that allows it, the second pair copies the first
        pairs = walk(spec, pw, k1, log_eps, cap)
        same = (
            (pairs.family[1:] == pairs.family[:-1])
            & (pairs.depth[1:] == pairs.depth[:-1])
            & (pairs.cells[1:] == pairs.cells[:-1])
        )
        assert same.any()
        pick = np.arange(len(pairs.family))
        i = int(np.argmax(same))
        pick[i + 1] = i
        return cq.antichain.GammaPairs(*(col[pick] for col in pairs))

    monkeypatch.setattr(cq.antichain, "_gamma_pairs", repeat)
    j = 4
    res = cq.build_l1_l2(desk1, consts2, cq.build_upsilon(desk1, consts2, j))
    assert res.l1_misfit is None and not res.l1_distinct
    seen = collections.Counter(res.l1)
    first = next(w for w in res.l1 if seen[w] > 1)
    shape = cq.certify(desk1, consts2, [j]).certificates[0].check("l1-shape")
    assert not shape.passed
    assert shape.witness == cq.encode_word(first)


def test_certify_reports_empty_s2_families(desk1, consts2):
    # with H2 < 1 every sampled anchor falls below its own cut
    report = cq.certify(desk1, dataclasses.replace(consts2, H2=0.5), [2])
    cert = report.certificates[0]
    assert (cert.check("s2-mass").value, cert.check("s2-gap").value) == (0.0, 0)
    for name in ("s2-mass", "s2-gap"):
        assert cert.check(name).value == 0.0 and cert.check(name).passed


def test_certify_psi_growth_bound_beyond_float_range(desk1):
    consts = cq.constants(desk1, 800.0)
    assert consts.H1 * math.log(desk1.m * desk1.n) > math.log(sys.float_info.max)
    report = cq.certify(desk1, consts, [0, 1])
    growth = report.cross_checks[1]
    assert (growth.name, growth.bound, growth.passed) == ("psi-growth", math.inf, True)
