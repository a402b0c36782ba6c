"""Integer word codes against word-by-word reference walks, bit for bit."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import carpetquant as cq
from carpetquant import Word, codes
from carpetquant.antichain import _exp, _log_epsilon, _row_code_classes
from carpetquant.runner import _certificate_rows
from reference_walks import (
    count_class_values,
    embed,
    encode,
    flatten,
    gamma_families,
    log_energy,
    log_w_mass,
    log_weight,
    rect,
    reference_all_words,
    reference_build_upsilon,
    reference_count_classes,
    reference_gamma_pairs,
    reference_l1_l2,
    reference_log_epsilon,
    reference_product_weights,
    reference_s2_family,
    reference_values,
    s2_families,
    word_codes,
)

TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}


def outcome(fn, *args, **kwargs):
    """The call's value, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (cq.CapExceeded, cq.BadTau) as exc:
        return type(exc)


@st.composite
def rational_carpets(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(m + 1, 6))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            min_size=2,
            max_size=7,
            unique=True,
        )
    )
    assume(len({i for i, _ in cells}) >= 2 and len({j for _, j in cells}) >= 2)
    weights = draw(st.lists(st.integers(1, 6), min_size=len(cells), max_size=len(cells)))
    total = sum(weights)
    return cq.make_spec(m, n, [(i, j, f"{w}/{total}") for (i, j), w in zip(cells, weights)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=rational_carpets(), r=st.sampled_from([1.0, 2.0, 3.0]), j=st.integers(0, 4))
def test_frontier_matches_reference_walks(spec, r, j):
    consts = cq.constants(spec, r)
    cap = 3_000
    want = outcome(reference_build_upsilon, spec, consts, j, cap)
    got = outcome(cq.build_upsilon, spec, consts, j, cap)
    if want is cq.CapExceeded:
        assert got is cq.CapExceeded
        return
    assert (got.words, tuple(got.log_w.tolist())) == want
    # count-class log weight, log energy and log W against the scalar sums
    assert count_class_values(spec, consts, got.codes) == reference_values(spec, consts, got.words)

    want = outcome(reference_l1_l2, spec, consts, got, cap)
    res = outcome(cq.build_l1_l2, spec, consts, got, cap)
    if isinstance(want, type):
        assert res is want
        return
    assert (res.l1, res.l2, res.gamma_sizes) == want
    assert res.tau_count == len(want[2])
    assert count_class_values(spec, consts, res.l1_codes) == reference_values(spec, consts, res.l1)

    # the batched s2 walk at certify's anchors (one per order and row code),
    # member by member; with H2 = 1 the cut ties each anchor's own log energy,
    # and a tie keeps
    anchors = _row_code_classes(got.codes)[0].words
    for c in (consts, dataclasses.replace(consts, H2=1.0)):
        want = [reference_s2_family(spec, c, sigma) for sigma in anchors]
        assert s2_families(spec, c, anchors) == want
    fam, _ = cq.s2_family(spec, consts, word_codes(spec, anchors))
    assert count_class_values(spec, consts, fam) == reference_values(spec, consts, fam.words)

    # the batched pair walk: every distinct quota's pairs, log W and order
    k1 = got.codes.blocks[0].k
    lam = set(got.words[: len(got.codes.blocks[0].a)])
    taus = [tau for tau in reference_all_words(spec, k1) if tau not in lam]
    eps = [reference_log_epsilon(spec, consts, j, tau) for tau in taus]
    assert _log_epsilon(spec, consts, j, word_codes(spec, taus)).tolist() == eps
    eps = sorted(set(eps))
    ref_pw = reference_product_weights(spec, consts)
    want = [reference_gamma_pairs(spec, ref_pw, k1, e, cap) for e in eps]
    pw = cq.product_weights(spec, consts)
    assert gamma_families(spec, pw, k1, eps, cap) == [(list(p), list(w)) for p, w in want]


def test_upsilon_cap_error_carries_a_lower_bound(desk1, consts2):
    with pytest.raises(cq.CapExceeded) as err:
        cq.build_upsilon(desk1, consts2, 5, cap=300)
    assert 300 < err.value.at_least <= cq.build_upsilon(desk1, consts2, 5).psi


def test_code_steps_match_word_steps(desk1):
    spec_b = cq.load_config(TIE)
    for spec in (desk1, spec_b):
        for k in range(0, 8):
            blk = codes.all_codes(spec, k)
            words = reference_all_words(spec, k)
            assert codes.decode(spec, blk) == words
            a, b = encode(spec, words)
            assert (a.tolist(), b.tolist()) == (blk.a.tolist(), blk.b.tolist())
            # keys increase exactly in the canonical order
            by_key = [words[i] for i in np.argsort(codes.keys(spec, blk), kind="stable")]
            assert by_key == sorted(words)
            if k:
                assert codes.decode(spec, codes.flatten(spec, blk)) == [
                    flatten(spec, w) for w in words
                ]


def test_permuted_digits_keep_count_keyed_values(desk1, consts2):
    # fsum is correctly rounded, so these values depend only on digit counts
    pw = reference_product_weights(desk1, consts2)
    rng = random.Random(8_311)
    cells = [(i, j) for i, j, _ in desk1.entries]
    for _ in range(20):
        k = rng.randrange(30, 80)
        la = cq.ell(desk1, k)
        w = Word(
            tuple(rng.choice(cells) for _ in range(la)),
            tuple(rng.choice((0, 1)) for _ in range(k - la)),
        )
        a, b = list(w.a), list(w.b)
        rng.shuffle(a)
        rng.shuffle(b)
        v = Word(tuple(a), tuple(b))
        assert log_weight(desk1, 2.0, v) == log_weight(desk1, 2.0, w)
        assert log_energy(desk1, consts2, v) == log_energy(desk1, consts2, w)
        assert log_w_mass(pw, embed(v)) == log_w_mass(pw, embed(w))


def snapshot(spec, consts, js):
    out = []
    for j in js:
        ups = cq.build_upsilon(spec, consts, j)
        pw = cq.product_weights(spec, consts)
        w = _exp(ups.codes.log_sum(pw.log_p_tilde, pw.log_q_tilde))
        scan = cq.s1_scan(spec, ups.codes, w)
        res = cq.build_l1_l2(spec, consts, ups)
        points = cq.antichain_codebook(spec, ups).points
        out.append(
            (
                ups.words,
                ups.log_w.tolist(),
                scan.w_sum.tolist(),
                scan.gap.tolist(),
                res.l1,
                res.l2,
                points.tobytes(),
            )
        )
    rows = _certificate_rows(consts.r, cq.certify(spec, consts, js))
    return out, rows


@pytest.mark.parametrize("config, r", [("desk1", 2.0), ("tie", 1.0)])
def test_object_codes_match_int64_codes(desk1, monkeypatch, config, r):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    consts = cq.constants(spec, r)
    js = range(0, 5)
    want = snapshot(spec, consts, js)
    # a tiny limit puts every order past the first few into dtype=object blocks
    monkeypatch.setattr(codes, "INT_LIMIT", 40)
    ups = cq.build_upsilon(spec, consts, 4)
    dtypes = {blk.a.dtype for blk in ups.codes.blocks}
    assert dtypes == {np.dtype(object)}
    assert codes.code_dtype(spec, 1) is np.int64
    assert snapshot(spec, consts, js) == want
    # the count-class values on object codes against the scalar sums
    res = cq.build_l1_l2(spec, consts, ups)
    fam, _ = cq.s2_family(spec, consts, _row_code_classes(ups.codes)[0])
    assert {blk.a.dtype for blk in fam.blocks + res.l1_codes.blocks} == {np.dtype(object)}
    for words in (ups.codes, fam, res.l1_codes):
        assert count_class_values(spec, consts, words) == reference_values(spec, consts, words.words)


def check_count_classes(monkeypatch):
    """Make every count-class grouping assert equality with the digit-by-digit loop.

    Returns the list of blocks it has checked.
    """
    shipped, seen = codes._count_classes, []

    def checked(spec, blk):
        inverse, counts = shipped(spec, blk)
        want_inverse, want_counts = reference_count_classes(spec, blk)
        assert np.array_equal(inverse, want_inverse) and counts == want_counts, blk.k
        seen.append(blk)
        return inverse, counts

    monkeypatch.setattr(codes, "_count_classes", checked)
    return seen


@pytest.mark.parametrize("config, r", [("desk1", 1.0), ("desk1", 2.0), ("tie", 1.0)])
def test_count_classes_match_the_digit_loop_in_certify(desk1, monkeypatch, config, r):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    seen = check_count_classes(monkeypatch)
    cq.certify(spec, cq.constants(spec, r), range(0, 7))
    assert max(blk.k for blk in seen) >= 12 and len(seen) > 50


@pytest.mark.parametrize("limit", [codes.INT_LIMIT, 40], ids=["int64", "object"])
@pytest.mark.parametrize("config", ["desk1", "tie"])
def test_count_classes_match_the_digit_loop_on_short_chunks(desk1, monkeypatch, config, limit):
    spec = desk1 if config == "desk1" else cq.load_config(TIE)
    seen = check_count_classes(monkeypatch)
    # with tiny tables a chunk holds 2 cell digits (3 cells) or 3 row digits (m = 2),
    # so most orders end each part on a shorter chunk
    monkeypatch.setattr(codes, "_KEY_TABLE", 9)
    monkeypatch.setattr(codes, "INT_LIMIT", limit)  # 40: object blocks past the first orders
    for k in range(0, 12):
        codes._count_classes(spec, codes.all_codes(spec, k))
    cq.certify(spec, cq.constants(spec, 1.0), range(0, 5))
    ells = [(blk.k, cq.ell(spec, blk.k)) for blk in seen]
    assert any(lk > 2 and lk % 2 for _, lk in ells)
    assert any(k - lk > 3 and (k - lk) % 3 for k, lk in ells)
    want = {np.dtype(np.int64), np.dtype(object)} if limit == 40 else {np.dtype(np.int64)}
    assert {blk.a.dtype for blk in seen} == want


def test_codebook_centers_match_rect(desk1, upsilon):
    ups = upsilon(4)
    points = cq.antichain_codebook(desk1, ups).points
    assert points.tolist() == [list(rect(desk1, w).center()) for w in ups.words]


def test_from_blocks_puts_values_in_canonical_order(desk1):
    blk = codes.all_codes(desk1, 3)
    rev = blk.take(np.arange(len(blk.a))[::-1])
    keys = codes.keys(desk1, rev)
    words, values = codes.WordCodes.from_blocks(desk1, [rev], [keys])
    assert values.tolist() == sorted(keys.tolist())
    assert values.tolist() == codes.keys(desk1, words.blocks[0]).tolist()
    empty, none = codes.WordCodes.from_blocks(desk1, [])
    assert len(empty) == 0 and none.dtype == np.int64 and none.size == 0


def test_join_concatenates_blocks_in_their_orders_dtype(desk1):
    blk = codes.all_codes(desk1, 3)
    joined = codes.join(desk1, 3, [blk.take([2, 0]), blk.take([1])])
    assert joined.k == 3
    assert joined.a.tolist() == blk.a[[2, 0, 1]].tolist()
    assert joined.b.tolist() == blk.b[[2, 0, 1]].tolist()
    wide = codes.join(desk1, 60, [codes.Block(60, np.array([1]), np.array([2]))])
    assert wide.a.dtype == object and wide.b.dtype == object
