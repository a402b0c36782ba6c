import itertools
import math

import pytest

import carpetquant as cq
from carpetquant import Word
from carpetquant.antichain import _exp, _log_energy
from reference_walks import (
    aligned_children,
    embed,
    is_aligned,
    level_codes,
    log_pair_energy,
    order,
    pair_levels,
    paired_flatten,
    reference_product_weights,
    s1_family,
    w_mass,
    word_codes,
)


def test_tilde_weights_are_distributions(pw2):
    p_tilde, q_tilde = _exp(pw2.log_p_tilde), _exp(pw2.log_q_tilde)
    assert math.fsum(p_tilde.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(q_tilde.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert (p_tilde > 0).all() and (q_tilde > 0).all()


def test_empty_pair_mass(desk1, pw2):
    root = word_codes(desk1, [Word((), ())])
    assert root.log_sum(pw2.log_p_tilde, pw2.log_q_tilde).tolist() == [0.0]


def test_embed_example(desk1, consts2, pw2):
    sigma = word_codes(desk1, [Word(((1, 1),), (0,))])
    w = math.exp(sigma.log_sum(pw2.log_p_tilde, pw2.log_q_tilde)[0])
    e = math.exp(_log_energy(desk1, consts2, sigma)[0])
    assert w == pytest.approx(0.14696118409872203, rel=1e-9)
    assert e == pytest.approx(0.1378701071950214, rel=1e-9)
    assert 1.0 <= w / e <= consts2.P / consts2.Q


def test_embed_sandwich_exhaustive(desk1, consts2, pw2):
    """W mass vs energy for every word of aligned order, raw comparisons."""
    k_min = math.ceil(1.0 / cq.derive_indices(desk1).theta)
    upper = consts2.P / consts2.Q
    for k in range(k_min, 7):
        words = level_codes(desk1, k)
        masses = _exp(words.log_sum(pw2.log_p_tilde, pw2.log_q_tilde)).tolist()
        for mass, e in zip(masses, _exp(_log_energy(desk1, consts2, words)).tolist()):
            assert e <= mass <= upper * e


def test_pair_energy_matches_word_energy(desk1, consts2):
    for k in range(1, 6):
        words = level_codes(desk1, k)
        for w, le in zip(words.words, _log_energy(desk1, consts2, words).tolist()):
            assert log_pair_energy(desk1, consts2, embed(w)) == pytest.approx(le, rel=1e-12)


def test_alignment_of_embedded_words(desk1):
    for k in range(1, 7):
        for w in level_codes(desk1, k).words:
            assert is_aligned(desk1, embed(w), 0)


def test_aligned_children_partition_mass(desk1, consts2, pw2):
    ref_pw = reference_product_weights(desk1, consts2)
    for offset in (0, 3, 5):
        levels = pair_levels(desk1, pw2, offset, 4)
        for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
            for i, pair in enumerate(pairs):
                mine = [c for c, p in zip(kids, parent.tolist()) if p == i]
                assert mine == aligned_children(desk1, pair, offset)
                total = math.fsum(w_mass(ref_pw, c) for c in mine)
                assert total == pytest.approx(w_mass(ref_pw, pair), rel=1e-12)
                assert all(is_aligned(desk1, c, offset) for c in mine)


def test_gamma_h_is_partition(desk1, consts2, pw2):
    ref_pw = reference_product_weights(desk1, consts2)
    levels = pair_levels(desk1, pw2, 0, 4)
    for h in range(0, 5):
        pairs = levels[h][1]
        assert math.fsum(w_mass(ref_pw, c) for c in pairs) == pytest.approx(
            1.0, abs=1e-12
        )
        assert len(pairs) == len(set(pairs))


def test_paired_flatten_inverts_extension(desk1, pw2):
    for offset in (0, 5):
        levels = pair_levels(desk1, pw2, offset, 5)
        for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
            for c, p in zip(kids, parent.tolist()):
                assert paired_flatten(desk1, c, offset) == pairs[p]


def test_pair_step_sandwich(desk1, consts2, pw2):
    """One aligned step loses at most the P^-1 eta^t factor, raw comparisons."""
    lo_factor = consts2.eta_lo**consts2.t_r / consts2.P
    ref_pw = reference_product_weights(desk1, consts2)
    levels = pair_levels(desk1, pw2, 5, 6)
    for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
        for c, p in zip(kids, parent.tolist()):
            w_parent = w_mass(ref_pw, pairs[p])
            w_child = w_mass(ref_pw, c)
            assert lo_factor * w_parent <= w_child < w_parent


def reference_s1_scan(spec, pw, words, k_min):
    """The word-by-word scan: anchor -> (W masses added in word order, max order gap)."""
    member = set(words)
    acc = {}
    for tau in words:
        w_tau = w_mass(pw, embed(tau))
        kt = order(tau)
        for k in range(k_min, kt + 1):
            la = cq.ell(spec, k)
            lb = k - la
            if lb > len(tau.b):
                continue
            anchor = Word(tau.a[:la], tau.b[:lb])
            if anchor in member:
                total, gap = acc.get(anchor, (0.0, 0))
                acc[anchor] = (total + w_tau, max(gap, kt - k))
    return acc


def s1_scan(spec, consts, ups):
    """The shipped scan, fed the count-class W masses that certify feeds it."""
    pw = cq.product_weights(spec, consts)
    return cq.s1_scan(spec, ups.codes, _exp(ups.codes.log_sum(pw.log_p_tilde, pw.log_q_tilde)))


def scan_items(ups, scan):
    return list(zip(ups.words, zip(scan.w_sum.tolist(), scan.gap.tolist())))


def test_s1_family_matches_scan(desk1, consts2, upsilon):
    ups = upsilon(3)
    ref_pw = reference_product_weights(desk1, consts2)
    scan = s1_scan(desk1, consts2, ups)
    # every member anchors its own family: one entry per member
    assert len(scan.w_sum) == len(scan.gap) == ups.psi
    # brute force at every anchor must reproduce the scan's aggregates
    for anchor, (w_sum, gap) in scan_items(ups, scan):
        fam = s1_family(desk1, consts2, ups.words, anchor)
        brute = math.fsum(w_mass(ref_pw, embed(t)) for t in fam)
        assert brute == pytest.approx(w_sum, rel=1e-12)
        assert max(order(t) - order(anchor) for t in fam) == gap


TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}


@pytest.mark.parametrize("config, r", [("desk1", 1.0), ("desk1", 2.0), ("tie", 1.0)])
def test_s1_scan_matches_word_walk(desk1, config, r):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    consts = cq.constants(spec, r)
    pw = reference_product_weights(spec, consts)
    for j in range(0, 6):
        ups = cq.build_upsilon(spec, consts, j)
        want = reference_s1_scan(spec, pw, ups.words, ups.codes.blocks[0].k)
        # same anchors in the same first-met order, bit-equal sums
        assert scan_items(ups, s1_scan(spec, consts, ups)) == list(want.items())


def test_s1_bounds_spot_check(desk1, consts2, upsilon):
    ups = upsilon(2)
    ref_pw = reference_product_weights(desk1, consts2)
    for anchor, (w_sum, gap) in scan_items(ups, s1_scan(desk1, consts2, ups)):
        assert w_sum <= consts2.H1 * w_mass(ref_pw, embed(anchor)) * (1 + 1e-11)
        assert gap <= consts2.H1
