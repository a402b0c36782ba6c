import math
import random

import pytest

import carpetquant as cq


def bisect_oracle(spec, r, steps=200):
    """Plain 200-step bisection on the raw left-hand side, no refinements."""
    lo, hi = 0.0, 2.0
    while cq.lhs(spec, r, hi) >= 1.0:
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if cq.lhs(spec, r, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_valid_spec(rng):
    """A random carpet that passes validation (two columns, two rows)."""
    while True:
        m = rng.randrange(2, 5)
        n = rng.randrange(m + 1, 7)
        cells = [(i, j) for i in range(n) for j in range(m)]
        count = rng.randrange(3, min(len(cells), 8) + 1)
        chosen = rng.sample(cells, count)
        if len({i for i, _ in chosen}) < 2 or len({j for _, j in chosen}) < 2:
            continue
        raw = [rng.uniform(0.1, 1.0) for _ in chosen]
        total = sum(raw)
        entries = [(i, j, p / total) for (i, j), p in zip(chosen, raw)]
        spec = cq.make_spec(m, n, entries)
        try:
            cq.validate_spec(spec)
        except cq.CarpetError:
            continue
        return spec


def test_solver_residual_and_value(desk1):
    s = cq.solve_sr(desk1, 2.0)
    assert abs(cq.lhs(desk1, 2.0, s) - 1.0) <= 1e-12
    assert s == pytest.approx(1.3611576458598, abs=1e-10)


def test_known_dimension_values(desk1):
    for r, expected in [
        (0.5, 1.3547833063181693),
        (1.0, 1.357810491809782),
        (3.0, 1.3629694035547049),
    ]:
        assert cq.solve_sr(desk1, r) == pytest.approx(expected, abs=1e-10)


def test_lhs_at_zero(desk1):
    idx = cq.derive_indices(desk1)
    # at s=0 every summand is 1, so the value is card(G)^theta card(G_y)^(1-theta)
    assert cq.lhs(desk1, 2.0, 0.0) == pytest.approx(
        3.0**idx.theta * 2.0 ** (1.0 - idx.theta), rel=1e-14
    )
    assert cq.lhs(desk1, 2.0, 0.0) == pytest.approx(2.0 ** (2.0 - idx.theta), rel=1e-14)


def test_lhs_strictly_decreasing(desk1):
    values = [cq.lhs(desk1, 2.0, 0.3 * i) for i in range(11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_agrees_with_bisection_oracle(desk1):
    for r in (0.5, 1.0, 2.0, 3.0):
        assert abs(cq.solve_sr(desk1, r) - bisect_oracle(desk1, r)) <= 1e-10


def test_random_specs_agree_with_oracle():
    rng = random.Random(99173)
    for _ in range(3):
        spec = random_valid_spec(rng)
        for r in (0.5, 1.0, 2.0, 3.0):
            s = cq.solve_sr(spec, r)
            assert abs(cq.lhs(spec, r, s) - 1.0) <= 1e-12
            assert abs(s - bisect_oracle(spec, r)) <= 1e-10


def test_constants_frozen_values(consts2):
    c = consts2
    assert c.t_r == pytest.approx(0.4049669159482754, rel=1e-11)
    assert c.P == pytest.approx(1.094175042825802, rel=1e-11)
    assert c.Q == pytest.approx(0.8573944462656387, rel=1e-11)
    assert c.eta_lo == pytest.approx(0.03, rel=1e-12)
    assert c.eta_hi == pytest.approx(0.463814389477975, rel=1e-11)
    assert c.H1 == 5
    assert c.xi == pytest.approx(1.5105072242943145, rel=1e-11)
    assert c.H2 == pytest.approx(7.37249676657859, rel=1e-10)
    assert c.M == 3
    assert c.H3 == pytest.approx(8.238561030873, rel=1e-10)
    assert c.H4 == pytest.approx(1.3963456721201133, rel=1e-10)
    assert c.H5 == pytest.approx(0.07453089895048552, rel=1e-10)


def test_t_is_s_over_s_plus_r(consts2):
    assert consts2.t_r == pytest.approx(consts2.s_r / (consts2.s_r + 2.0), rel=1e-14)


def test_p_and_q_bracket_one(desk1):
    for r in (0.5, 1.0, 2.0, 3.0):
        c = cq.constants(desk1, r)
        assert c.P >= 1.0 >= c.Q > 0.0


def test_h1_minimality(consts2):
    c = consts2
    assert c.eta_hi**c.H1 < c.eta_lo <= c.eta_hi ** (c.H1 - 1)


def test_m_minimality(consts2):
    c = consts2
    assert c.eta_hi**c.M < 1.0 / c.H2 <= c.eta_hi ** (c.M - 1)


def test_h3_is_xi_geometric_sum(consts2):
    c = consts2
    assert c.H3 == pytest.approx(
        math.fsum(c.xi**h for h in range(c.M + 1)), rel=1e-13
    )


def test_h4_h5_composition(consts2):
    c = consts2
    assert c.H4 == pytest.approx(c.P**2 / c.Q, rel=1e-13)
    assert c.H5 == pytest.approx(c.Q**2 / (c.H3 * c.P**2), rel=1e-13)


def test_entry_order_does_not_matter():
    a = cq.make_spec(2, 3, [(0, 0, 0.4), (1, 1, 0.3), (2, 1, 0.3)])
    b = cq.make_spec(2, 3, [(2, 1, 0.3), (0, 0, 0.4), (1, 1, 0.3)])
    ca, cb = cq.constants(a, 2.0), cq.constants(b, 2.0)
    assert ca.s_r == cb.s_r
    assert ca.P == cb.P and ca.Q == cb.Q


def test_solver_rejects_bad_inputs(desk1):
    with pytest.raises(ValueError):
        cq.solve_sr(desk1, 0.0)
    with pytest.raises(ValueError):
        cq.solve_sr(desk1, -1.0)


def test_r_whose_eta_lo_leaves_the_normal_range_is_a_config_error(desk1):
    # desk-1's eta_lo = 0.3 * 0.4 * 2^-r is normal up to r = 1018
    assert cq.constants(desk1, 1018.0).eta_lo == 4.2721418083338265e-308
    for r in (1019.0, 1100.0, 1e6):
        with pytest.raises(cq.ConfigError, match=f"r = {r} "):
            cq.constants(desk1, r)
