import pytest

import carpetquant as cq


def test_desk1_roundtrip(desk1):
    assert desk1.m == 2 and desk1.n == 3
    assert desk1.entries == ((0, 0, 0.4), (1, 1, 0.3), (2, 1, 0.3))


def test_entries_sorted_canonically():
    spec = cq.make_spec(2, 3, [(2, 1, 0.3), (0, 0, 0.4), (1, 1, 0.3)])
    assert spec.entries == ((0, 0, 0.4), (1, 1, 0.3), (2, 1, 0.3))


def test_indices(desk1):
    idx = cq.derive_indices(desk1)
    assert idx.g_x == (0, 1, 2)
    assert idx.g_y == (0, 1)
    assert idx.columns_of(0) == (0,)
    assert idx.columns_of(1) == (1, 2)
    assert dict(idx.q)[0] == pytest.approx(0.4, abs=1e-15)
    assert dict(idx.q)[1] == pytest.approx(0.6, abs=1e-15)
    assert idx.theta == pytest.approx(0.6309297535714574, abs=1e-15)
    assert not idx.uniform_fibres


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


def test_cell_probabilities(desk1):
    probs = cq.cell_probabilities(desk1)
    assert probs[(0, 0)] == pytest.approx(0.4)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

