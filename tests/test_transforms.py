import numpy as np
import pytest
from fractions import Fraction as Fr
from hypothesis import example, given, settings, strategies as st

from hamdelay.cli import _random_trig_loop
from hamdelay.geometry import PhaseSpace, build_level
from hamdelay.transforms import (
    AffineMap,
    DiscreteCurve,
    MonotoneSplineMap,
    ReparamPair,
    TransformChain,
    UniformSpline,
    _map_on_nodes,
    compare_tau_tables,
    copy_time_map,
    delayed_time,
    phi_chain,
    psi_chain,
    printed_time_maps,
    resample,
    sup_distance,
)
from tests.oracles import equals_mod1, phi_step, psi_step


def trig_loop_fn(rng, dim=2, scale=0.3):
    a = scale * rng.standard_normal((2, dim))
    b = scale * rng.standard_normal((2, dim))
    c = rng.random(dim)

    def f(t):
        out = c.copy()
        for k in (1, 2):
            out = out + a[k - 1] * np.cos(2 * np.pi * k * t) + b[k - 1] * np.sin(2 * np.pi * k * t)
        return out

    return f


fractions_01 = st.fractions(min_value=Fr(1, 20), max_value=Fr(19, 20)).filter(
    lambda r: 0 < r < 1
)


# ---------------------------------------------------------------------------
# affine maps


@given(
    st.fractions(min_value=Fr(-8), max_value=Fr(8)).filter(lambda s: s != 0),
    st.fractions(min_value=Fr(-8), max_value=Fr(8)),
)
def test_affine_inverse_roundtrip(slope, intercept):
    m = AffineMap(slope, intercept)
    assert m.inverse()(m(Fr(1, 3))) == Fr(1, 3)
    comp = m.compose(m.inverse())
    assert comp.slope == 1 and comp.intercept == 0


def test_affine_mod1():
    assert equals_mod1(AffineMap(1, Fr(3, 2)), AffineMap(1, Fr(1, 2)))
    assert not equals_mod1(AffineMap(1, Fr(3, 2)), AffineMap(1, Fr(1, 3)))
    assert not equals_mod1(AffineMap(2, Fr(1, 2)), AffineMap(1, Fr(1, 2)))


def test_affine_pretty():
    assert str(AffineMap(4, 0)) == "4t"
    assert str(AffineMap(-4, 2)) == "2 - 4t"
    assert str(AffineMap(Fr(1, 4), Fr(1, 2))) == "1/2 + t/4"
    assert str(AffineMap(1, Fr(-1, 2))) == "t - 1/2"
    assert str(AffineMap(Fr(-9, 2), Fr(3, 2))) == "3/2 - (9/2)t"


def test_affine_rejects_zero_slope():
    with pytest.raises(ValueError):
        AffineMap(0, 1)


# ---------------------------------------------------------------------------
# reparametrization pairs


def test_halving_pair():
    p = ReparamPair.halving()
    assert p.tau == Fr(1, 2)
    assert p.alpha(Fr(1, 3)) == Fr(1, 6)
    assert p.beta(Fr(1, 3)) == Fr(5, 6)


def test_affine_pair_matches_halving_at_one_half():
    p = ReparamPair.affine(Fr(1, 2))
    q = ReparamPair.halving()
    assert p.alpha == q.alpha and p.beta == q.beta


@given(fractions_01)
def test_affine_pair_boundary_conditions(r):
    p = ReparamPair.affine(r)
    assert p.alpha(Fr(0)) == 0 and p.beta(Fr(0)) == 1
    assert p.alpha(Fr(1)) == p.beta(Fr(1)) == r


def test_pair_validation_rejects_bad_maps():
    with pytest.raises(ValueError):
        ReparamPair(AffineMap(Fr(1, 2), Fr(1, 8)), AffineMap(Fr(-1, 2), 1), Fr(1, 2))
    with pytest.raises(ValueError):
        ReparamPair.affine(Fr(3, 2))


def test_spline_pair_roundtrip():
    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    beta = MonotoneSplineMap(xs, 1.0 - 0.35 * xs - 0.15 * xs**2)
    pair = ReparamPair(alpha, beta, 0.5)
    inv = alpha.inverse()
    ts = np.linspace(0, 0.5, 11)
    assert np.max(np.abs(alpha(inv(ts)) - ts)) < 1e-11
    assert abs(inv.deriv(0.25) - 1.0 / alpha.deriv(inv(0.25))) < 1e-9


def test_spline_pair_rejects_flat_endpoint():
    """A reparametrization whose slope collapses is not a diffeomorphism."""
    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    ys = 1.0 - 0.5 * xs
    ys[-1] = ys[-2] - 1e-12  # final step is flat at scale
    flat_beta = MonotoneSplineMap(xs, ys)
    with pytest.raises(ValueError):
        ReparamPair(alpha, flat_beta, float(ys[-1]))


# ---------------------------------------------------------------------------
# segment tables


def test_segment_table_n1():
    tab = TransformChain.standard(1).table
    e1, e2 = tab.by_interval()
    assert (e1.copy, e1.lo, e1.hi) == (0, 0, Fr(1, 2))
    assert e1.theta == AffineMap(2, 0)
    assert (e2.copy, e2.lo, e2.hi) == (1, Fr(1, 2), 1)
    assert e2.theta == AffineMap(-2, 2)
    assert float(e2.rate(0.75)) == 2.0


def test_segment_table_n2_matches_two_step_pullback():
    tab = TransformChain.standard(2).table
    order = [(e.copy, e.theta) for e in tab.by_interval()]
    assert order == [
        (0, AffineMap(4, 0)),
        (2, AffineMap(-4, 2)),
        (3, AffineMap(4, -2)),
        (1, AffineMap(-4, 4)),
    ]
    assert [float(e.rate(float(e.lo))) for e in tab.by_interval()] == [4.0] * 4


@given(st.integers(1, 5))
def test_segment_table_invariants_standard(n):
    _check_table_invariants(TransformChain.standard(n))


@given(st.lists(fractions_01, min_size=1, max_size=3))
def test_segment_table_invariants_rational(rs):
    _check_table_invariants(TransformChain.affine(rs))


def _check_table_invariants(chain):
    space = PhaseSpace(1, "plane")
    level = build_level(space, chain.level)
    tab = chain.table
    entries = tab.by_interval()
    # tiling with disjoint interiors
    assert entries[0].lo == 0 and entries[-1].hi == 1
    for a, b in zip(entries[:-1], entries[1:]):
        assert a.hi == b.lo
    assert sorted(e.copy for e in entries) == list(range(2 ** chain.level))
    for e in entries:
        # bijection onto [0,1] and sign(theta') = eps
        ends = sorted([e.theta(e.lo), e.theta(e.hi)])
        assert ends == [0, 1]
        mid = (Fr(e.lo) + Fr(e.hi)) / 2
        assert np.sign(float(e.theta.deriv(float(mid)))) == level.sign_vector[e.copy]
        assert float(e.rate(float(mid))) > 0
    # boundary compatibility mod 1 across the two matchings
    for a, b in level.matching1:
        ta, tb = tab[a].theta.inverse()(Fr(1)), tab[b].theta.inverse()(Fr(1))
        assert (ta - tb) % 1 == 0
    for a, b in level.matching0:
        ta, tb = tab[a].theta.inverse()(Fr(0)), tab[b].theta.inverse()(Fr(0))
        assert (ta - tb) % 1 == 0


# ---------------------------------------------------------------------------
# copy time maps and delayed times


def test_copy_time_maps_standard():
    ch1 = TransformChain.standard(1)
    assert copy_time_map(ch1, 1) == AffineMap(Fr(-1, 2), 1)
    ch2 = TransformChain.standard(2)
    assert copy_time_map(ch2, 3) == AffineMap(Fr(1, 4), Fr(1, 2))
    assert copy_time_map(ch2, 1) == AffineMap(Fr(-1, 4), 1)


def test_printed_variant_table():
    assert printed_time_maps(2)[1] == AffineMap(Fr(-1, 4), Fr(1, 2))
    assert printed_time_maps(3)[5] == AffineMap(Fr(1, 8), Fr(3, 4))
    rows = compare_tau_tables(3)
    mismatched = [r["copy"] for r in rows if not r["match"]]
    assert mismatched == [2, 4, 5, 7]
    assert all(r["match"] for r in compare_tau_tables(1))


def test_compare_tau_tables_builds_printed_maps_once(monkeypatch):
    """One pass of the printed recursion per table, not one per copy."""
    import hamdelay.transforms as transforms

    calls = []
    build = transforms.printed_time_maps
    monkeypatch.setattr(transforms, "printed_time_maps", lambda n: calls.append(n) or build(n))
    rows = compare_tau_tables(6)
    assert calls == [6]
    assert [r["printed"] for r in rows] == build(6)
    assert [r["copy"] for r in rows] == list(range(1, 65))


def test_derived_and_printed_agree_as_sets():
    for n in (2, 3):
        derived = {(m.slope, m.intercept) for m in (copy_time_map(TransformChain.standard(n), j) for j in range(2**n))}
        printed = {(m.slope, m.intercept) for m in printed_time_maps(n)}
        assert derived == printed


def test_delayed_time_examples():
    ch2 = TransformChain.standard(2)
    assert equals_mod1(delayed_time(ch2, 0, 3), AffineMap(1, Fr(-1, 2)))
    ch3 = TransformChain.standard(3)
    assert delayed_time(ch3, 0, 6) == AffineMap(1, Fr(1, 4))
    r = Fr(1, 3)
    ch = TransformChain(
        (ReparamPair.affine(r),)
    )
    assert delayed_time(ch, 0, 1) == AffineMap(-(1 - r) / r, 1)


def test_delayed_time_constant_shifts_at_half():
    """Halving chains only produce the forms +-t +- j/8 (mod 1)."""
    ch3 = TransformChain.standard(3)
    for k in range(8):
        for m in range(8):
            if k == m:
                continue
            d = delayed_time(ch3, k, m)
            assert abs(d.slope) == 1
            assert (d.intercept * 8).denominator == 1


def test_section5_closed_forms():
    r1, r2 = Fr(1, 3), Fr(2, 5)
    ch = TransformChain.affine([r1, r2])
    assert delayed_time(ch, 0, 3) == AffineMap((1 - r1) * (1 - r2) / (r1 * r2), r1)
    assert delayed_time(ch, 2, 1) == AffineMap(
        r2 * (1 - r1) / (r1 * (1 - r2)), 1 - r2 * (1 - r1) / (1 - r2)
    )
    assert delayed_time(ch, 3, 0) == AffineMap(
        r1 * r2 / ((1 - r1) * (1 - r2)), -r1 * r1 * r2 / ((1 - r1) * (1 - r2))
    )
    assert delayed_time(ch, 1, 2) == AffineMap(
        r1 * (1 - r2) / (r2 * (1 - r1)), r1 - r1 * (1 - r2) / (r2 * (1 - r1))
    )


@given(fractions_01)
def test_section5_equal_r_specializations(r):
    ch = TransformChain.affine([r, r])
    assert delayed_time(ch, 0, 3) == AffineMap(((1 - r) / r) ** 2, r)
    assert delayed_time(ch, 2, 1) == AffineMap(1, 1 - r)
    assert equals_mod1(delayed_time(ch, 1, 2), AffineMap(1, r - 1))
    assert delayed_time(ch, 3, 0) == AffineMap((r / (1 - r)) ** 2, -r * (r / (1 - r)) ** 2)


# ---------------------------------------------------------------------------
# curves and transforms


def test_grid_rule_rejects_misaligned():
    sp = PhaseSpace(1, "torus")
    with pytest.raises(ValueError):
        DiscreteCurve(sp, 0, np.zeros((11, 1, 2)), True, (Fr(1, 4),))


def test_psi_step_constant_loop(torus):
    v = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.3, 0.7]), 16)
    w = psi_step(ReparamPair.halving(), v)
    assert w.level == 1 and w.copies == 2
    assert np.allclose(w.samples, w.samples[0])


def test_psi_step_halving_formula(torus, rng):
    f = trig_loop_fn(rng)
    v = DiscreteCurve.from_function(torus, f, 128)
    w = psi_step(ReparamPair.halving(), v)
    ts = v.times()
    for k in range(0, 129, 2):
        assert np.allclose(w.samples[k, 0], torus.normalize(f(ts[k] / 2)), atol=1e-9)
        assert np.allclose(w.samples[k, 1], torus.normalize(f(1 - ts[k] / 2)), atol=1e-9)


def test_psi_step_keeps_interior_breakpoints_on_spline_pair(torus, rng):
    """A loop breakpoint at tau maps to chord time 1 under both inverses, an
    endpoint and no breakpoint; phi_step then rebuilds the loop."""
    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    beta = MonotoneSplineMap(xs, 1.0 - 0.35 * xs - 0.15 * xs**2)
    pair = ReparamPair(alpha, beta, 0.5)
    v = DiscreteCurve.from_function(torus, trig_loop_fn(rng), 64, breakpoints=(0.5,))
    w = psi_step(pair, v)
    assert w.breakpoints == ()
    back = phi_step(pair, w)
    assert back.breakpoints == (0.5,)
    assert sup_distance(back, v) < 1e-3


def test_segment_table_nodes():
    table = TransformChain.standard(2).table
    assert table.nodes(8) == [0, 2, 4, 6, 8]
    with pytest.raises(ValueError, match="misaligned"):
        table.nodes(6)


def test_segment_table_caches_return_fresh_lists():
    """Breakpoints and nodes are computed once per table (and grid), and
    a caller that edits a returned list changes nothing kept."""
    table = TransformChain.affine([Fr(1, 3), Fr(1, 2)]).table
    bps, nodes = table.breakpoints(), table.nodes(36)
    bps.pop(), nodes.pop()
    assert table.breakpoints() == sorted({e.lo for e in table.entries} | {e.hi for e in table.entries}, key=float)
    assert table.nodes(36) == [int(b * 36) for b in table.breakpoints()]
    assert len(table.nodes(36)) == len(table.breakpoints()) == 5


def test_psi_step_rejects_open_curve(torus):
    samples = np.linspace(0, 0.4, 17)[:, None, None] * np.ones((1, 1, 2))
    v = DiscreteCurve(torus, 0, samples, True)
    with pytest.raises(ValueError):
        psi_step(ReparamPair.halving(), v)


def test_phi_step_rejects_bad_gluing(torus):
    samples = np.zeros((17, 2, 2))
    samples[:, 1, :] = 0.25  # endpoint mismatch between the copy blocks
    w = DiscreteCurve(torus, 1, samples, False)
    with pytest.raises(ValueError):
        phi_step(ReparamPair.halving(), w)


def test_roundtrip_bitwise_standard(torus, rng):
    f = trig_loop_fn(rng)
    v = DiscreteCurve.from_function(torus, f, 96)
    for n in (1, 2, 3):
        ch = TransformChain.standard(n)
        back = phi_chain(ch, psi_chain(ch, v))
        assert np.array_equal(back.samples, v.samples)


def test_roundtrip_stepwise_matches_chain(torus, rng):
    f = trig_loop_fn(rng)
    v = DiscreteCurve.from_function(torus, f, 64)
    ch = TransformChain.standard(2)
    w_chain = psi_chain(ch, v)
    w_steps = psi_step(ch.steps[1], psi_step(ch.steps[0], v))
    assert sup_distance(w_chain, w_steps) < 2e-5
    back = phi_step(ch.steps[0], phi_step(ch.steps[1], w_chain))
    assert sup_distance(back, v) < 2e-5


def test_phi_chain_segment_reading(torus, rng):
    """A node inside the third quarter reads copy 4 at chord time -2+4t."""
    f = trig_loop_fn(rng)
    v = DiscreteCurve.from_function(torus, f, 64)
    ch = TransformChain.standard(2)
    w = psi_chain(ch, v)
    back = phi_chain(ch, w)
    k = 40  # t = 5/8 in (1/2, 3/4)
    s = -2 + 4 * (40 / 64)
    idx = round(s * 64)
    assert np.array_equal(back.samples[k, 0], w.samples[idx, 3])


def test_roundtrip_rational_chain(torus, rng):
    f = trig_loop_fn(rng)
    ch = TransformChain.affine([Fr(1, 3), Fr(1, 2)])
    den = ch.grid_denominator()
    v = DiscreteCurve.from_function(torus, f, den * 32)
    back = phi_chain(ch, psi_chain(ch, v))
    assert sup_distance(back, v) < 1e-6


def test_roundtrip_convergence_after_resample(torus, rng):
    f = trig_loop_fn(rng)
    errs = []
    ch = TransformChain.affine([Fr(2, 5)])
    den = ch.grid_denominator()
    for mult in (8, 16, 32):
        v = DiscreteCurve.from_function(torus, f, den * mult)
        back = phi_chain(ch, psi_chain(ch, v))
        errs.append(sup_distance(resample(back, den * 8), resample(v, den * 8)))
    n_vals = [den * 8, den * 16, den * 32]
    assert errs[2] <= errs[0] * (n_vals[0] / n_vals[2]) ** 2 * 4 + 1e-14


def test_resample_identity_and_nodes(torus, rng):
    f = trig_loop_fn(rng)
    v = DiscreteCurve.from_function(torus, f, 64)
    assert np.array_equal(resample(v, 64).samples, v.samples)
    fine = resample(v, 128)
    assert np.array_equal(fine.samples[::2], v.samples)
    const = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.5, 0.25]), 32)
    assert np.allclose(resample(const, 96).samples, const.samples[0])


def test_resample_convergence(torus, rng):
    f = trig_loop_fn(rng)
    coarse = DiscreteCurve.from_function(torus, f, 128)
    exact = DiscreteCurve.from_function(torus, f, 256)
    err = sup_distance(resample(coarse, 256), exact)
    coarse2 = DiscreteCurve.from_function(torus, f, 256)
    exact2 = DiscreteCurve.from_function(torus, f, 512)
    err2 = sup_distance(resample(coarse2, 512), exact2)
    assert err2 < err / 4 * 1.5 + 1e-14


# ---------------------------------------------------------------------------
# array paths against their per-node oracles


def _map_on_nodes_loop(curve, tmap, n_out, copy, k0=0, k1=None):
    """The per-node Python-int loop that the affine branch of _map_on_nodes
    replaced; kept as its oracle."""
    k1 = n_out if k1 is None else k1
    n_in = curve.n_intervals
    out = np.empty((k1 - k0 + 1, curve.space.dim))
    miss_idx, miss_t = [], []
    ps, qs = tmap.slope.numerator, tmap.slope.denominator
    pi, qi = tmap.intercept.numerator, tmap.intercept.denominator
    den = qs * qi * n_out
    for i, k in enumerate(range(k0, k1 + 1)):
        num = ps * k * qi + pi * qs * n_out
        hit, rem = divmod(num * n_in, den)
        if rem == 0 and (curve.is_loop or 0 <= hit <= n_in):
            if curve.is_loop and not 0 <= hit <= n_in:
                hit %= n_in
            out[i] = curve.samples[hit, copy]
        else:
            miss_idx.append(i)
            miss_t.append(num / den)
    if miss_idx:
        vals = curve.interpolant().evaluate(np.asarray(miss_t))[:, copy, :]
        out[np.asarray(miss_idx)] = curve.space.normalize(vals)
    return out


# small rationals hit nodes often; numerators and denominators near 1e12-1e16
# push |num| * n_in or den past the int64 guard, so the object dtype runs too
_ints = st.integers(-24, 24) | st.integers(10**12, 10**16) | st.integers(-(10**16), -(10**12))
_dens = st.integers(1, 12) | st.integers(10**12 - 50, 10**12 + 50)


@st.composite
def _affine_jobs(draw):
    """1-4 jobs (map, copy, k0, k1) on one grid pair; one job past the int64
    guard sends the whole batch down the object dtype."""
    n_in = draw(st.integers(1, 48) | st.sampled_from([1024, 4096]))
    n_out = draw(st.integers(1, 48) | st.sampled_from([1000, 4096]))
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        tmap = AffineMap(Fr(draw(_ints.filter(bool)), draw(_dens)), Fr(draw(_ints), draw(_dens)))
        k0 = draw(st.integers(0, n_out))
        jobs.append((tmap, draw(st.integers(0, 1)), k0, draw(st.integers(k0, n_out))))
    return jobs, n_in, n_out, draw(st.booleans())


@settings(max_examples=300)
@given(_affine_jobs())
@example(([(AffineMap(1, 10**15), 0, 0, 64)], 64, 64, True))  # object dtype, every node a wrapped hit
@example(([(AffineMap(-1, 1), 1, 0, 32)], 64, 32, True))  # hits at both ends, 0 and n_in
@example(([(AffineMap(Fr(-3, 2), Fr(1, 4)), 0, 2, 20)], 16, 24, True))  # negative hits wrap
@example(([(AffineMap(Fr(-3, 10**12 + 7), Fr(5, 10**12 - 3)), 1, 3, 37)], 48, 40, False))
@example(([(AffineMap(Fr(1, 2)), 0, 0, 40), (AffineMap(Fr(3, 10**12 + 7), 1), 1, 5, 9)], 48, 40, True))
def test_map_on_nodes_matches_loop_oracle(case):
    jobs, n_in, n_out, is_loop = case
    space = PhaseSpace(1, "torus")
    samples = np.random.default_rng(n_in * 7919 + n_out).random((n_in + 1, 2, 2))
    curve = DiscreteCurve(space, 1, samples, is_loop)
    got = _map_on_nodes(curve, n_out, jobs)
    assert len(got) == len(jobs)
    for block, (tmap, copy, k0, k1) in zip(got, jobs):
        assert block.tobytes() == _map_on_nodes_loop(curve, tmap, n_out, copy, k0, k1).tobytes()


def test_map_on_nodes_batch_matches_single_jobs(torus, rng):
    """Affine and spline maps in one batch read what each reads alone; a
    spline map goes through the interpolant at every node."""
    samples = rng.random((33, 2, 2))
    curve = DiscreteCurve(torus, 1, samples, False)
    xs = np.linspace(0.0, 1.0, 9)
    spline = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    jobs = [(AffineMap(Fr(1, 2)), 1, 0, 24), (spline, 0, 3, 20), (AffineMap(Fr(-1, 3), 1), 0, 6, 6), (spline, 1, 0, 24)]
    got = _map_on_nodes(curve, 24, jobs)
    for block, job in zip(got, jobs):
        assert block.tobytes() == _map_on_nodes(curve, 24, [job])[0].tobytes()
    tmap, copy, k0, k1 = jobs[1]
    want = curve.interpolant().evaluate(tmap(np.linspace(0.0, 1.0, 25)[k0 : k1 + 1]))[:, copy, :]
    assert np.array_equal(got[1], torus.normalize(want))


@pytest.mark.parametrize("topology", ["torus", "plane"])
@pytest.mark.parametrize("n", [1, 96, 4096])
def test_vectorized_sampling_matches_per_node(topology, n):
    """One call on the node column gives the samples of one call per node.

    This relies on numpy's float64 sin and cos giving the same bits for an
    array as for a scalar, which holds where both take the same loop."""
    space = PhaseSpace(1, topology)
    rng = np.random.default_rng(n)
    ts = np.linspace(0.0, 1.0, n + 1)
    for f in (trig_loop_fn(rng), trig_loop_fn(rng, scale=0.4), _random_trig_loop(space, rng, 0.25)):
        per_node = space.normalize(np.asarray([f(t) for t in ts], dtype=float))
        assert np.array_equal(DiscreteCurve.from_function(space, f, n).samples[:, 0, :], per_node)


def test_vectorized_sampling_needs_one_row_per_node(torus):
    with pytest.raises(ValueError, match="one row per node"):
        DiscreteCurve.from_function(torus, lambda t: np.array([0.3, 0.7]), 16)


def test_copy_time_map_consistency_with_table():
    """tau_m inverts theta_m to machine precision at a thousand points."""
    ch = TransformChain.affine([Fr(1, 3), Fr(2, 5)])
    tab = ch.table
    for e in tab.entries:
        tau = copy_time_map(ch, e.copy)
        ss = np.linspace(0, 1, 1000)
        ts = tau(ss)
        assert np.max(np.abs(np.asarray(e.theta(ts)) - ss)) < 1e-12


def test_chain_json_roundtrip():
    ch = TransformChain.affine([Fr(1, 3), Fr(2, 5)])
    back = TransformChain.from_json(ch.to_json())
    assert back.table.to_json() == ch.table.to_json()
    std = TransformChain.standard(2)
    assert TransformChain.from_json(std.to_json()).is_standard()


def test_segment_table_json_exact_rationals():
    tab = TransformChain.affine([Fr(1, 3), Fr(2, 5)]).table
    data = tab.to_json()
    first = data["segments"][0]
    assert first["interval"] == ["0", "2/15"]
    assert first["theta"] == {"slope": "15/2", "intercept": "0"}
    assert first["copy"] == 1 and first["sign"] == 1


def test_two_step_table_thetas_are_composed_inverses():
    r1, r2 = Fr(1, 3), Fr(2, 5)
    a1, b1 = AffineMap(r1), AffineMap(r1 - 1, 1)
    a2, b2 = AffineMap(r2), AffineMap(r2 - 1, 1)
    tab = TransformChain.affine([r1, r2]).table
    assert tab[0].theta == a2.inverse().compose(a1.inverse())
    assert tab[1].theta == a2.inverse().compose(b1.inverse())
    assert tab[2].theta == b2.inverse().compose(a1.inverse())
    assert tab[3].theta == b2.inverse().compose(b1.inverse())
    assert tab[0].lo == 0 and tab[0].hi == a1(r2)
    assert tab[3].lo == r1 and tab[3].hi == b1(r2)


# ---------------------------------------------------------------------------
# the numpy spline against scipy's CubicSpline


def _rel_close(got, want, rtol=1e-13):
    """got equals want to rtol relative to the largest value of want."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("nodes", [2, 3, 4, 5, 129, 2049])
@pytest.mark.parametrize("columns", [1, 16])
def test_uniform_spline_matches_scipy(nodes, columns):
    """Random times and the knots, columns as groups and as width, against
    scipy's spline with the end rule the node count picks: not-a-knot from
    4 nodes, natural at 3 and 2 (where both give the chord)."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(nodes * 31 + columns)
    knots = np.linspace(0.0, 1.0, nodes)
    y = np.cumsum(rng.standard_normal((nodes, columns)), axis=0) / np.sqrt(nodes) + rng.standard_normal(columns)
    want_spline = CubicSpline(knots, y, axis=0, bc_type="not-a-knot" if nodes >= 4 else "natural")
    ts = np.concatenate([rng.random(500), knots, rng.permutation(knots)])
    want = want_spline(ts)
    for layout in (y[:, :, None], y[:, None, :]):  # (groups, width) = (columns, 1) and (1, columns)
        got = UniformSpline(nodes - 1, [(0.0, 0, layout)])(ts)
        _rel_close(got.reshape(len(ts), columns), want)


@pytest.mark.parametrize("nodes", [2, 3, 4, 129])
def test_uniform_spline_knots_are_samples_bitwise(nodes):
    """Every knot reads its sample bitwise, the last one included, a time
    per group reads what the all-groups call reads for that group, and no
    times read an empty array."""
    rng = np.random.default_rng(nodes)
    y = rng.standard_normal((nodes, 3, 2))
    spline = UniformSpline(nodes - 1, [(0.0, 0, y)])
    assert spline(spline.knots).tobytes() == y.tobytes()
    ts = np.concatenate([rng.random(200), spline.knots])
    group = rng.integers(0, 3, len(ts))
    assert spline(ts, group).tobytes() == np.ascontiguousarray(spline(ts)[np.arange(len(ts)), group]).tobytes()
    empty = np.empty(0)
    assert spline(empty).shape == (0, 3, 2)
    assert spline(empty, empty.astype(np.intp)).shape == (0, 2)


def _scipy_interpolant(curve):
    """The per-segment scipy splines CurveInterpolant used to build: the
    oracle of its pieces and boundary rules.  Returns evaluate(t)."""
    from scipy.interpolate import CubicSpline

    n = curve.n_intervals
    bounds = [0.0] + sorted({float(b) for b in curve.breakpoints} - {0.0, 1.0}) + [1.0]
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        k0, k1 = round(lo * n), round(hi * n)
        ts = np.linspace(k0 / n, k1 / n, k1 - k0 + 1)
        ys = curve.space.unwrap(curve.samples.reshape(n + 1, -1)[k0 : k1 + 1])
        pieces.append(CubicSpline(ts, ys, axis=0, bc_type="not-a-knot" if len(ts) >= 4 else "natural"))

    def evaluate(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if curve.is_loop:
            t = np.where(t == 1.0, 1.0, np.mod(t, 1.0))
        t = np.clip(t, 0.0, 1.0)
        idx = np.searchsorted(np.array(bounds[1:-1]), t, side="right")
        out = np.empty((len(t),) + curve.samples.shape[1:])
        for i, piece in enumerate(pieces):
            out[idx == i] = piece(t[idx == i]).reshape(-1, *curve.samples.shape[1:])
        return out

    return evaluate


@pytest.mark.parametrize("topology", ["torus", "plane"])
@pytest.mark.parametrize(
    "n,breakpoints",
    [
        (48, ()),
        (48, (Fr(1, 3), Fr(1, 2), Fr(7, 12))),  # segments of 16, 8, 4 and 20 intervals
        (48, (Fr(1, 48), Fr(3, 48), Fr(45, 48))),  # segments of 1, 2, 42 and 3 intervals
        (48, (1 / 3 - 1.5e-11, 0.5 + 2e-11)),  # float breakpoints just off their nodes
    ],
)
def test_curve_interpolant_pieces_match_scipy(topology, n, breakpoints):
    """A curve is split at its breakpoints into the segments, boundary rules
    and lifts of the scipy splines, and a time on or just off a breakpoint
    reads the same segment."""
    space = PhaseSpace(1, topology)
    rng = np.random.default_rng(n + len(breakpoints))
    samples = rng.random((n + 1, 2, 2)) if topology == "torus" else rng.standard_normal((n + 1, 2, 2))
    curve = DiscreteCurve(space, 1, samples, False, breakpoints)
    bps = np.array([float(b) for b in breakpoints])
    ts = np.concatenate([rng.random(400), curve.times(), bps, bps - 1e-11, bps + 1e-11, [0.0, 1.0]])
    got = curve.interpolant().evaluate(ts)
    _rel_close(got, _scipy_interpolant(curve)(ts))
    if topology == "plane" and all(isinstance(b, Fr) for b in breakpoints):
        assert curve.interpolant().evaluate(np.arange(n + 1) / n).tobytes() == samples.tobytes()


def test_loop_reads_its_last_node_at_one(plane):
    """A loop reads t = 1.0 at its last node, bitwise, and every other time
    mod 1; a path clips."""
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((33, 1, 2))
    samples[-1] = samples[0] + 1e-9  # closes within the boundary tolerance, not bitwise
    loop = DiscreteCurve(plane, 0, samples, True)
    interp = loop.interpolant()
    assert interp.evaluate(1.0).tobytes() == samples[-1:].tobytes()
    assert interp.evaluate([]).shape == (0, 1, 2)
    assert interp.evaluate(2.0).tobytes() == interp.evaluate(0.0).tobytes() == samples[:1].tobytes()
    ts = rng.random(50)
    assert np.array_equal(interp.evaluate(ts - 3.0), interp.evaluate(np.mod(ts - 3.0, 1.0)))
    _rel_close(interp.evaluate(ts + 1.0), _scipy_interpolant(loop)(ts + 1.0))
    path = DiscreteCurve(plane, 0, samples, False)
    assert path.interpolant().evaluate(np.array([-0.5, 1.5])).tobytes() == samples[[0, -1]].tobytes()


def test_map_on_nodes_hits_copy_samples_bitwise(torus):
    """On the r = 1/3 maps every third output node hits an input node and
    copies its sample; the other nodes read the interpolant."""
    rng = np.random.default_rng(9)
    curve = DiscreteCurve(torus, 1, rng.random((28, 2, 2)), False)
    jobs = [(AffineMap(Fr(1, 3)), 0, 0, 27), (AffineMap(Fr(-2, 3), 1), 1, 0, 27)]
    first, second = _map_on_nodes(curve, 27, jobs)
    assert first[::3].tobytes() == curve.samples[:10, 0].tobytes()
    assert second[::3].tobytes() == curve.samples[27::-2, 1][:10].tobytes()
    miss = np.arange(28) % 3 != 0
    want = curve.interpolant().evaluate(np.arange(28)[miss] / 81)[:, 0]
    assert first[miss].tobytes() == torus.normalize(want).tobytes()
