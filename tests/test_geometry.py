import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamdelay.geometry import (
    PhaseSpace,
    build_level,
    embed_diagonal_params,
    on_diagonal,
)
from hamdelay.solvers import _end_residual
from tests.oracles import (
    embed_diagonal_params_oracle,
    end_residual_oracle,
    reduce_diagonal_params,
    union_graph_is_single_cycle,
)


def test_phase_space_validation():
    with pytest.raises(ValueError):
        PhaseSpace(0, "torus")
    with pytest.raises(ValueError):
        PhaseSpace(1, "cylinder")
    assert PhaseSpace(2, "plane").dim == 4


def test_sign_vectors():
    sp = PhaseSpace(1, "torus")
    assert build_level(sp, 0).sign_vector == (1,)
    assert build_level(sp, 1).sign_vector == (1, -1)
    assert build_level(sp, 2).sign_vector == (1, -1, -1, 1)


def test_level_guards():
    sp = PhaseSpace(1, "torus")
    with pytest.raises(ValueError):
        build_level(sp, -1)
    with pytest.raises(ValueError):
        build_level(sp, 13)


def test_matchings_n2():
    sp = PhaseSpace(1, "torus")
    lv = build_level(sp, 2)
    assert lv.matching0 == ((0, 1), (2, 3))
    assert lv.matching1 == ((0, 2), (1, 3))


def test_matched_pairs_have_opposite_signs():
    sp = PhaseSpace(1, "torus")
    for n in range(1, 6):
        lv = build_level(sp, n)
        for a, b in lv.matching0 + lv.matching1:
            assert lv.sign_vector[a] + lv.sign_vector[b] == 0


def test_union_graph_single_cycle_up_to_5():
    sp = PhaseSpace(1, "torus")
    for n in range(1, 6):
        assert union_graph_is_single_cycle(build_level(sp, n))


def test_matching_pair_counts():
    sp = PhaseSpace(2, "torus")
    for n in range(1, 6):
        lv = build_level(sp, n)
        assert len(lv.matching0) == len(lv.matching1) == 2 ** (n - 1)


def test_wrapped_difference_examples(torus, plane):
    assert np.allclose(plane.wrapped_difference([1.0, 0.0], [0.0, 0.0]), [1.0, 0.0])
    assert np.allclose(torus.wrapped_difference([0.9, 0.0], [0.1, 0.0]), [-0.2, 0.0])
    assert np.allclose(torus.wrapped_difference([0.3, 0.6], [0.3, 0.6]), [0.0, 0.0])


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_wrapped_difference_range(vals):
    torus = PhaseSpace(1, "torus")
    d = torus.wrapped_difference(vals, [0.0, 0.0])
    assert np.all(d > -0.5 - 1e-12) and np.all(d <= 0.5 + 1e-12)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_torus_normalization_idempotent(vals):
    torus = PhaseSpace(1, "torus")
    once = torus.normalize(vals)
    assert np.all(once >= 0.0) and np.all(once < 1.0)
    assert np.array_equal(torus.normalize(once), once)


def test_on_diagonal_total_point(torus):
    lv = build_level(torus, 2)
    z = np.array([0.3, 0.7])
    p = np.tile(z, (4, 1))
    for which in (0, 1, "tot"):
        assert on_diagonal(lv, which, p)


def test_on_diagonal_partial(torus):
    lv = build_level(torus, 2)
    z, w = np.array([0.3, 0.7]), np.array([0.1, 0.2])
    p = np.stack([z, z, w, w])
    assert on_diagonal(lv, 0, p)
    assert not on_diagonal(lv, 1, p)
    assert not on_diagonal(lv, "tot", p)


@pytest.mark.parametrize("topology", ["torus", "plane"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_on_diagonal_matches_per_pair_rule(n, topology):
    """The one-gather test decides as the pair-by-pair distance rule does,
    also on points holding NaN and inf, where a NaN gap fails no pair; the
    gathered diagonal embedding and shooting end residual are bitwise the
    pair-by-pair loops, for every batch shape."""
    space = PhaseSpace(1, topology)
    lv = build_level(space, n)
    rng = np.random.default_rng(n)

    def per_pair(which, p, tol):
        pairs = [(0, j) for j in range(1, lv.copies)] if which == "tot" else lv.matching(which)
        return not any(space.distance(p[a], p[b]) > tol for a, b in pairs)

    for _ in range(40):
        p = np.tile(rng.random(2), (lv.copies, 1)) + rng.choice([0.0, 1e-10, 1e-7, 1.0], (lv.copies, 2))
        p[rng.random(p.shape) < 0.05] = rng.choice([np.nan, np.inf])
        for which in (0, 1, "tot") if n else ("tot",):
            with np.errstate(invalid="ignore"):
                assert on_diagonal(lv, which, p, tol=1e-9) == per_pair(which, p, 1e-9)

    for batch in ((), (5,), (2, 3)) if n else ():
        z = 3 * rng.standard_normal(batch + (lv.copies, 2))
        got, want = _end_residual(lv, z), end_residual_oracle(lv, z)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for which in (0, 1):
            params = z[..., : lv.copies // 2, :]
            got, want = embed_diagonal_params(lv, which, params), embed_diagonal_params_oracle(lv, which, params)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.integers(1, 5), st.data())
def test_both_diagonals_force_total(n, data):
    """Constraint propagation along the union cycle pins every copy."""
    torus = PhaseSpace(1, "torus")
    lv = build_level(torus, n)
    seed = data.draw(st.lists(st.floats(0, 0.999), min_size=2, max_size=2))
    p = np.empty((lv.copies, 2))
    p[:] = np.nan
    p[0] = seed
    # propagate equality along both matchings until all copies are set
    for _ in range(lv.copies):
        for a, b in lv.matching0 + lv.matching1:
            if not np.isnan(p[a]).any() and np.isnan(p[b]).any():
                p[b] = p[a]
            elif not np.isnan(p[b]).any() and np.isnan(p[a]).any():
                p[a] = p[b]
    assert not np.isnan(p).any()
    assert on_diagonal(lv, 0, p) and on_diagonal(lv, 1, p)
    assert on_diagonal(lv, "tot", p)


def test_embed_examples(torus):
    lv1 = build_level(torus, 1)
    z = np.array([[0.2, 0.9]])
    assert np.allclose(embed_diagonal_params(lv1, 0, z), np.stack([z[0], z[0]]))
    lv2 = build_level(torus, 2)
    params = np.array([[0.1, 0.2], [0.3, 0.4]])
    emb = embed_diagonal_params(lv2, 1, params)
    assert np.allclose(emb, np.stack([params[0], params[1], params[0], params[1]]))


@given(st.integers(1, 4), st.data())
def test_reduce_embed_roundtrip(n, data):
    torus = PhaseSpace(1, "torus")
    lv = build_level(torus, n)
    flat = data.draw(
        st.lists(st.floats(0, 0.999), min_size=2 ** n, max_size=2 ** n)
    )
    params = np.array(flat).reshape(2 ** (n - 1), 2)
    for which in (0, 1):
        emb = embed_diagonal_params(lv, which, params)
        back = reduce_diagonal_params(lv, which, emb)
        assert np.array_equal(back, params)


def test_reduce_rejects_off_diagonal(torus):
    lv = build_level(torus, 1)
    p = np.array([[0.1, 0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        reduce_diagonal_params(lv, 0, p)


def test_unwrap_crosses_the_torus_seam(torus):
    """Steps over the 0/1 seam become steps of less than 1/2 on the lift,
    and the input stays as it was."""
    s = np.array([[0.9, 0.05], [0.97, 0.98], [0.04, 0.91], [0.12, 0.85]])
    before = s.copy()
    lifted = torus.unwrap(s)
    assert np.allclose(lifted, [[0.9, 0.05], [0.97, -0.02], [1.04, -0.09], [1.12, -0.15]], atol=1e-12)
    assert np.allclose(torus.normalize(lifted), s, atol=1e-12)
    assert np.array_equal(s, before)


def test_unwrap_lifts_each_column_along_axis_0(torus, rng):
    """A (N+1, copies, dim) block lifts copy by copy, bit for bit."""
    s = torus.normalize(np.cumsum(0.3 * rng.standard_normal((40, 3, 2)), axis=0))
    lifted = torus.unwrap(s)
    for j in range(3):
        assert lifted[:, j].tobytes() == torus.unwrap(s[:, j]).tobytes()


def test_unwrap_on_the_plane_is_a_copy(plane):
    s = np.array([[0.9, 0.05], [0.1, 0.9]])
    lifted = plane.unwrap(s)
    assert np.array_equal(lifted, s)
    lifted[0, 0] = 5.0
    assert s[0, 0] == 0.9


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
)
def test_distance_is_the_wrapped_sup_norm(a, b):
    torus, plane = PhaseSpace(1, "torus"), PhaseSpace(1, "plane")
    d = torus.distance(a, b)
    assert isinstance(d, float) and 0.0 <= d <= 0.5
    nearest = max(min(abs(x - y - k) for k in range(-7, 8)) for x, y in zip(a, b))
    assert abs(d - nearest) < 1e-12
    assert plane.distance(a, b) == max(abs(x - y) for x, y in zip(a, b))


def test_distance_half_period_is_one_half(torus):
    """Representatives lie in (-1/2, 1/2], so opposite points are 1/2 apart
    whichever way the difference is taken."""
    assert torus.distance([0.0, 0.0], [0.5, 0.25]) == 0.5
    assert torus.distance([0.5, 0.25], [0.0, 0.0]) == 0.5
