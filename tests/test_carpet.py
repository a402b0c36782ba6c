import math

import pytest

import carpetquant as cq

TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}
# theta = 1/3 exactly, with uniform fibres
EIGHT = {"m": 2, "n": 8, "entries": [[0, 0, 0.2], [5, 0, 0.3], [2, 1, 0.1], [7, 1, 0.4]]}


def test_desk1_roundtrip(desk1):
    assert desk1.m == 2 and desk1.n == 3
    assert desk1.entries == ((0, 0, 0.4), (1, 1, 0.3), (2, 1, 0.3))


def test_entries_sorted_canonically():
    spec = cq.make_spec(2, 3, [(2, 1, 0.3), (0, 0, 0.4), (1, 1, 0.3)])
    assert spec.entries == ((0, 0, 0.4), (1, 1, 0.3), (2, 1, 0.3))


def test_indices(desk1):
    tie, eight = cq.load_config(TIE), cq.load_config(EIGHT)
    for spec, uniform in ((desk1, False), (tie, False), (eight, True)):
        idx = cq.derive_indices(spec)
        assert cq.derive_indices(spec) is idx
        prob = {(i, j): p for i, j, p in spec.entries}
        cells = sorted(prob)
        rows = sorted({j for _, j in cells})
        q = {j: math.fsum(prob[c] for c in cells if c[1] == j) for j in rows}
        assert idx.cells == tuple(cells)
        assert idx.cell_i.tolist() == [i for i, _ in cells]
        assert idx.cell_j.tolist() == [j for _, j in cells]
        assert idx.log_p.tolist() == [math.log(prob[c]) for c in cells]
        assert idx.rows.tolist() == rows
        assert idx.q == tuple(q.items())
        assert idx.log_q.tolist() == [math.log(q[j]) for j in rows]
        assert idx.up.tolist() == [math.log(prob[c]) - math.log(q[c[1]]) for c in cells]
        assert idx.theta == math.log(spec.m) / math.log(spec.n)
        assert idx.uniform_fibres is uniform
        assert uniform == (len({sum(c[1] == j for c in cells) for j in rows}) == 1)
    idx = cq.derive_indices(desk1)
    assert idx.cells == ((0, 0), (1, 1), (2, 1))
    assert dict(idx.q)[0] == pytest.approx(0.4, abs=1e-15)
    assert dict(idx.q)[1] == pytest.approx(0.6, abs=1e-15)
    assert idx.theta == pytest.approx(0.6309297535714574, abs=1e-15)


def test_uniform_fibres_flag():
    spec = cq.make_spec(
        2, 4, [(0, 0, 0.25), (1, 0, 0.25), (2, 1, 0.25), (3, 1, 0.25)]
    )
    cq.validate_spec(spec)
    assert cq.derive_indices(spec).uniform_fibres


def test_rejects_m_not_less_than_n():
    with pytest.raises(cq.DegenerateGrid):
        cq.validate_spec(cq.make_spec(3, 3, [(0, 0, 0.5), (1, 1, 0.5)]))
    with pytest.raises(cq.DegenerateGrid):
        cq.validate_spec(cq.make_spec(1, 3, [(0, 0, 0.5), (1, 0, 0.5)]))


def test_rejects_cell_outside_grid():
    with pytest.raises(cq.DegenerateGrid):
        cq.validate_spec(cq.make_spec(2, 3, [(3, 0, 0.5), (0, 1, 0.5)]))
    with pytest.raises(cq.DegenerateGrid):
        cq.validate_spec(cq.make_spec(2, 3, [(0, 2, 0.5), (1, 0, 0.5)]))


def test_rejects_duplicate_cell():
    with pytest.raises(cq.DuplicateCell):
        cq.validate_spec(
            cq.make_spec(2, 3, [(0, 0, 0.3), (0, 0, 0.3), (1, 1, 0.4)])
        )


def test_rejects_nonpositive_probability():
    with pytest.raises(cq.BadProbabilities):
        cq.validate_spec(cq.make_spec(2, 3, [(0, 0, 0.0), (1, 1, 1.0)]))


def test_rejects_bad_probability_sum():
    with pytest.raises(cq.BadProbabilities):
        cq.validate_spec(cq.make_spec(2, 3, [(0, 0, 0.4), (1, 1, 0.4)]))
    # a crumb of roundoff is fine
    spec = cq.make_spec(2, 3, [(0, 0, 0.4 + 5e-13), (1, 1, 0.3), (2, 1, 0.3)])
    cq.validate_spec(spec)


def test_rejects_thin_projections():
    # single occupied column
    with pytest.raises(cq.ThinDigitSet):
        cq.validate_spec(cq.make_spec(2, 3, [(0, 0, 0.5), (0, 1, 0.5)]))
    # single occupied row
    with pytest.raises(cq.ThinDigitSet):
        cq.validate_spec(cq.make_spec(2, 3, [(0, 0, 0.5), (1, 0, 0.5)]))


def test_probability_coercion():
    spec = cq.make_spec(2, 3, [(0, 0, "2/5"), (1, 1, "0.3"), (2, 1, 0.3)])
    cq.validate_spec(spec)
    assert spec.entries[0][2] == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(cq.BadProbabilities):
        cq.make_spec(2, 3, [(0, 0, "lots"), (1, 1, 0.6)])
    with pytest.raises(cq.BadProbabilities):
        cq.make_spec(2, 3, [(0, 0, None), (1, 1, 0.6)])


def test_load_config_from_file(desk1_path, desk1):
    spec = cq.load_config(desk1_path)
    assert spec == desk1


def test_load_config_rejects_bad_shapes():
    with pytest.raises(cq.CarpetError):
        cq.load_config({"m": 2, "n": 3})
    with pytest.raises(cq.CarpetError):
        cq.load_config({"m": 2, "n": 3, "entries": "nope"})

