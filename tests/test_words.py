import itertools
import math

import numpy as np
import pytest

import carpetquant as cq
from carpetquant import Word, codes
from carpetquant.antichain import _exp, _log_energy, _log_weight
from reference_walks import level_codes, rect, validate_word, word_codes


def test_ell_desk1(desk1):
    assert [cq.ell(desk1, k) for k in range(1, 9)] == [0, 1, 1, 2, 3, 3, 4, 5]
    assert cq.ell(desk1, 0) == 0


def test_ell_is_exact_for_power_ratios():
    # at m=2, n=8 theta = 1/3 exactly, and the float floor of k*theta goes wrong
    # at k = 3, 6, ...; check every small grid against max t: n**t <= m**k
    for m in range(2, 12):
        for n in range(m + 1, 13):
            spec = cq.make_spec(m, n, [(0, 0, 0.5), (n - 1, 1, 0.5)])
            want = 0
            for k in range(201):
                while n ** (want + 1) <= m**k:
                    want += 1
                assert cq.ell(spec, k) == want, (m, n, k)


def test_ell_matches_float_floor_when_safe(desk1):
    idx = cq.derive_indices(desk1)
    for k in range(1, 40):
        assert cq.ell(desk1, k) == math.floor(k * idx.theta)


def log_mass(spec, words):
    tab = cq.derive_indices(spec)
    return words.log_sum(tab.log_p, tab.log_q)


def test_children_orders_and_validity(desk1):
    parent = word_codes(desk1, [Word(((1, 1),), (0,))]).blocks[0]
    kids = codes.expand(desk1, parent)[0]
    assert kids.k == parent.k + 1
    for c in codes.decode(desk1, kids):
        validate_word(desk1, c)


def test_children_mass_conservation(desk1):
    words = level_codes(desk1, 3)
    kids, parent, _, _ = codes.expand(desk1, words.blocks[0])
    kid_mass = _exp(log_mass(desk1, codes.WordCodes(desk1, (kids,), (np.arange(len(kids.a)),))))
    for i, mass in enumerate(_exp(log_mass(desk1, words)).tolist()):
        assert math.fsum(kid_mass[parent == i].tolist()) == pytest.approx(mass, rel=1e-12)


def test_flatten_inverts_children(desk1):
    for k in range(1, 6):
        blk = codes.all_codes(desk1, k)
        kids, parent, _, _ = codes.expand(desk1, blk)
        up = codes.flatten(desk1, kids)
        assert up.k == k
        assert (up.a.tolist(), up.b.tolist()) == (blk.a[parent].tolist(), blk.b[parent].tolist())


def test_flatten_terminates_at_root(desk1):
    blk = word_codes(desk1, [Word(((1, 1),), (0, 1))]).blocks[0]
    for _ in range(3):
        blk = codes.flatten(desk1, blk)
    assert codes.decode(desk1, blk) == [Word((), ())]
    with pytest.raises(cq.BadWord):
        codes.flatten(desk1, blk)


def test_all_words_counts_and_mass(desk1):
    for k in range(1, 7):
        words = level_codes(desk1, k)
        assert len(np.unique(codes.keys(desk1, words.blocks[0]))) == len(words)
        mass = math.fsum(_exp(log_mass(desk1, words)).tolist())
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_measure_weight_energy(desk1, consts2):
    w = word_codes(desk1, [Word(((1, 1),), (0,))])
    assert math.exp(log_mass(desk1, w)[0]) == pytest.approx(0.3 * 0.4, rel=1e-14)
    assert math.exp(_log_weight(desk1, 2.0, w)[0]) == pytest.approx(0.12 * 2.0**-4, rel=1e-14)
    assert math.exp(_log_energy(desk1, consts2, w)[0]) == pytest.approx(
        (0.12 * 2.0**-4) ** consts2.t_r, rel=1e-12
    )


def test_rect_example(desk1):
    # the square [1/3, 2/3] x [1/2, 3/4]
    blk = word_codes(desk1, [Word(((1, 1),), (0,))]).blocks[0]
    assert codes.centers(desk1, blk) == [(0.5, 0.625)]


def test_rect_diameter_band(desk1):
    # an order-k square is m^-k high and n^-ell(k) <= n m^-k wide
    bound = math.sqrt(desk1.n**2 + 1)
    for k in range(1, 40):
        d = math.hypot(float(desk1.n) ** -cq.ell(desk1, k), float(desk1.m) ** -k)
        assert desk1.m**-k <= d <= desk1.m**-k * bound


def test_rect_nested_or_disjoint(desk1):
    blk2, blk4 = codes.all_codes(desk1, 2), codes.all_codes(desk1, 4)
    words2, words4 = codes.decode(desk1, blk2), codes.decode(desk1, blk4)
    for w1, w2 in itertools.combinations(words2 + words4, 2):
        s1, s2 = rect(desk1, w1), rect(desk1, w2)
        nested = s1.contains(s2) or s2.contains(s1)
        assert nested or not s1.overlaps_interior(s2)
    # an order-2 square contains an order-4 one exactly when it is its flattened ancestor
    ancestors = codes.decode(desk1, codes.flatten(desk1, codes.flatten(desk1, blk4)))
    for w4, anc in zip(words4, ancestors):
        for w2 in words2:
            assert rect(desk1, w2).contains(rect(desk1, w4)) == (w2 == anc)


def test_refinement_step_ratio_band(desk1, consts2):
    hi = max(q for _, q in cq.derive_indices(desk1).q) * desk1.m**-2.0
    for k in range(0, 4):
        words = level_codes(desk1, k)
        kids, parent, _, _ = codes.expand(desk1, words.blocks[0])
        kid_codes = codes.WordCodes(desk1, (kids,), (np.arange(len(kids.a)),))
        lw = _log_weight(desk1, 2.0, words)
        steps = _log_weight(desk1, 2.0, kid_codes) - lw[parent]
        for ratio in map(math.exp, steps.tolist()):
            assert consts2.eta_lo <= ratio + 1e-15
            assert ratio <= hi + 1e-15


def test_encode_decode_roundtrip(desk1):
    words = codes.decode(desk1, codes.all_codes(desk1, 1)) + codes.decode(
        desk1, codes.all_codes(desk1, 5)
    )
    assert word_codes(desk1, words).words == tuple(words)
    assert cq.encode_word(Word(((1, 1), (0, 0)), (1, 0))) == "a:(1,1)(0,0)|b:1 0"
    assert cq.encode_word(Word((), ())) == "a:|b:"
