import itertools
import math

import pytest

import carpetquant as cq
from carpetquant import CylinderPair, Word
from reference_walks import (
    aligned_children,
    is_aligned,
    log_pair_energy,
    pair_levels,
    paired_flatten,
    s1_family,
)


def test_tilde_weights_are_distributions(pw2):
    assert math.fsum(pw2.p_tilde.values()) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(pw2.q_tilde.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in pw2.p_tilde.values())
    assert all(v > 0 for v in pw2.q_tilde.values())


def test_empty_pair_mass(pw2):
    assert cq.w_mass(pw2, CylinderPair((), ())) == 1.0


def test_embed_example(desk1, consts2, pw2):
    sigma = Word(((1, 1),), (0,))
    w = cq.w_mass(pw2, cq.embed(sigma))
    e = cq.energy(desk1, consts2, sigma)
    assert w == pytest.approx(0.14696118409872203, rel=1e-9)
    assert e == pytest.approx(0.1378701071950214, rel=1e-9)
    assert 1.0 <= w / e <= consts2.P / consts2.Q


def test_embed_sandwich_exhaustive(desk1, consts2, pw2):
    """W mass vs energy for every word of aligned order, raw comparisons."""
    k_min = math.ceil(1.0 / cq.derive_indices(desk1).theta)
    upper = consts2.P / consts2.Q
    for k in range(k_min, 7):
        for w in cq.all_words(desk1, k):
            mass = cq.w_mass(pw2, cq.embed(w))
            e = cq.energy(desk1, consts2, w)
            assert e <= mass <= upper * e


def test_pair_energy_matches_word_energy(desk1, consts2):
    for k in range(1, 6):
        for w in cq.all_words(desk1, k):
            assert log_pair_energy(desk1, consts2, cq.embed(w)) == pytest.approx(
                cq.log_energy(desk1, consts2, w), rel=1e-12
            )


def test_alignment_of_embedded_words(desk1):
    for k in range(1, 7):
        for w in cq.all_words(desk1, k):
            assert is_aligned(desk1, cq.embed(w), 0)


def test_aligned_children_partition_mass(desk1, pw2):
    for offset in (0, 3, 5):
        levels = pair_levels(desk1, pw2, offset, 4)
        for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
            for i, pair in enumerate(pairs):
                mine = [c for c, p in zip(kids, parent.tolist()) if p == i]
                assert mine == aligned_children(desk1, pair, offset)
                total = math.fsum(cq.w_mass(pw2, c) for c in mine)
                assert total == pytest.approx(cq.w_mass(pw2, pair), rel=1e-12)
                assert all(is_aligned(desk1, c, offset) for c in mine)


def test_gamma_h_is_partition(desk1, pw2):
    levels = pair_levels(desk1, pw2, 0, 4)
    for h in range(0, 5):
        level = levels[h][1]
        assert math.fsum(cq.w_mass(pw2, c) for c in level) == pytest.approx(
            1.0, abs=1e-12
        )
        assert len(level) == len(set(level))


def test_paired_flatten_inverts_extension(desk1, pw2):
    for offset in (0, 5):
        levels = pair_levels(desk1, pw2, offset, 5)
        for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
            for c, p in zip(kids, parent.tolist()):
                assert paired_flatten(desk1, c, offset) == pairs[p]


def test_pair_step_sandwich(desk1, consts2, pw2):
    """One aligned step loses at most the P^-1 eta^t factor, raw comparisons."""
    lo_factor = consts2.eta_lo**consts2.t_r / consts2.P
    levels = pair_levels(desk1, pw2, 5, 6)
    for (_, pairs, _), (parent, kids, _) in zip(levels, levels[1:]):
        for c, p in zip(kids, parent.tolist()):
            w_parent = cq.w_mass(pw2, pairs[p])
            w_child = cq.w_mass(pw2, c)
            assert lo_factor * w_parent <= w_child < w_parent


def reference_s1_scan(spec, pw, words, k_min):
    """The word-by-word scan: anchor -> (W masses added in word order, max order gap)."""
    member = set(words)
    acc = {}
    for tau in words:
        w_tau = cq.w_mass(pw, cq.embed(tau))
        kt = cq.order(tau)
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


def scan_items(ups, scan):
    return [
        (ups.words[i], (w_sum, gap))
        for i, w_sum, gap in zip(scan.anchor.tolist(), scan.w_sum.tolist(), scan.gap.tolist())
    ]


def test_s1_family_matches_scan(desk1, consts2, pw2, upsilon):
    ups = upsilon(3)
    scan = cq.s1_scan(desk1, pw2, ups.codes)
    # every member anchors its own family, once
    assert sorted(scan.anchor.tolist()) == list(range(ups.psi))
    # brute force at every anchor must reproduce the scan's aggregates
    for anchor, (w_sum, gap) in scan_items(ups, scan):
        fam = s1_family(desk1, consts2, ups.words, anchor)
        brute = math.fsum(cq.w_mass(pw2, cq.embed(t)) for t in fam)
        assert brute == pytest.approx(w_sum, rel=1e-12)
        assert max(cq.order(t) - cq.order(anchor) for t in fam) == gap


TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}


@pytest.mark.parametrize("config, r", [("desk1", 1.0), ("desk1", 2.0), ("tie", 1.0)])
def test_s1_scan_matches_word_walk(desk1, config, r):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    consts = cq.constants(spec, r)
    pw = cq.product_weights(spec, consts)
    for j in range(0, 6):
        ups = cq.build_upsilon(spec, consts, j)
        want = reference_s1_scan(spec, pw, ups.words, ups.codes.blocks[0].k)
        # same anchors in the same first-met order, bit-equal sums
        assert scan_items(ups, cq.s1_scan(spec, pw, ups.codes)) == list(want.items())


def test_s1_bounds_spot_check(desk1, consts2, pw2, upsilon):
    ups = upsilon(2)
    scan = cq.s1_scan(desk1, pw2, ups.codes)
    for anchor, (w_sum, gap) in scan_items(ups, scan):
        assert w_sum <= consts2.H1 * cq.w_mass(pw2, cq.embed(anchor)) * (1 + 1e-11)
        assert gap <= consts2.H1
