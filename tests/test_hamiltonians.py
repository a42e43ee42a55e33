import json
from fractions import Fraction as Fr
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hamdelay.hamiltonians as hamiltonians
from hamdelay.cli import ExperimentConfig
from hamdelay.geometry import PhaseSpace, build_level
from hamdelay.transforms import AffineMap, DiscreteCurve, TransformChain
from hamdelay.hamiltonians import (
    BumpTime,
    ConstSpatial,
    ConstTime,
    Factor,
    LiftTime,
    PolySpatial,
    StructuredHamiltonian,
    TabulatedTime,
    TrigSpatial,
    TrigTime,
    lift,
    vector_field,
)
from hamdelay.transforms import copy_time_map, printed_time_maps, psi_chain
from tests.oracles import factor_grad, factor_value, fd_gradient_oracle, hamiltonian_field, spatial_grad, spatial_value


def morse_base(eps=0.05):
    return StructuredHamiltonian(
        0,
        (
            (1.0, (Factor(0, TrigSpatial(eps, (1, 0))),)),
            (1.0, (Factor(0, TrigSpatial(eps, (0, 1))),)),
        ),
    )


def _one_factor(spatial):
    """Value and gradient of spatial at one point z, through the compiled
    program of the level-0 Hamiltonian with that one factor."""
    K = StructuredHamiltonian(0, ((1.0, (Factor(0, spatial),)),))
    return (lambda z: K.value(z[None], 0.0)), (lambda z: K.gradient(z[None], 0.0)[0])


def test_trig_spatial_value_and_grad():
    f = TrigSpatial(0.5, (1, -2), 0.3)
    value, grad = _one_factor(f)
    z = np.array([0.2, 0.7])
    ph = 2 * np.pi * (0.2 - 1.4) + 0.3
    assert np.isclose(value(z), 0.5 * np.cos(ph))
    g = grad(z)
    assert np.allclose(g, -0.5 * 2 * np.pi * np.sin(ph) * np.array([1, -2]))


def test_poly_spatial_grad():
    # pi (x^2 + y^2)
    f = PolySpatial(((np.pi, (2, 0)), (np.pi, (0, 2))))
    value, grad = _one_factor(f)
    z = np.array([1.5, -0.5])
    assert np.isclose(value(z), np.pi * 2.5)
    assert np.allclose(grad(z), 2 * np.pi * z)


def test_time_profiles_periodic():
    for prof in (TrigTime(0.4, 2, 0.3, 0.5), BumpTime(0.3, 0.2, 1.0), TabulatedTime((0.1, 0.5, 0.9, 0.4))):
        ts = np.linspace(0, 1, 7)
        assert np.allclose(prof(ts), prof(ts + 1.0), atol=1e-12)


def test_bump_is_smooth_and_compact():
    b = BumpTime(0.5, 0.25, 2.0)
    assert b(0.5) == 2.0
    assert b(0.7) > 0
    assert b(0.76) == 0.0
    assert b(0.1) == 0.0


def test_eval_examples(torus):
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, ConstSpatial(2.5)),)),))
    z = np.random.default_rng(0).random((2, 2))
    assert np.isclose(K.value(z, 0.3), 2.5)
    empty = StructuredHamiltonian(1, ())
    assert empty.value(z, 0.3) == 0.0


def test_eval_product_splits(rng):
    F = TrigSpatial(0.4, (1, 0), 0.1)
    G = TrigSpatial(0.7, (0, 2), 0.9)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, F), Factor(1, G))),))
    z = rng.random((2, 2))
    assert np.isclose(K.value(z, 0.1), spatial_value(F, z[0]) * spatial_value(G, z[1]))


def test_term_copy_uniqueness():
    F = Factor(0, ConstSpatial(1.0))
    with pytest.raises(ValueError):
        StructuredHamiltonian(1, ((1.0, (F, F)),))
    with pytest.raises(ValueError):
        StructuredHamiltonian(0, ((1.0, (Factor(1, ConstSpatial(1.0)),)),))


def test_vector_field_signs_level1(torus, rng):
    """Component 1 carries +X of the z1-slice, component 2 carries -X."""
    lev = build_level(torus, 1)
    F = TrigSpatial(0.7, (2, 1), 0.3)
    z = rng.random((2, 2))
    K1 = StructuredHamiltonian(1, ((1.0, (Factor(0, F),)),))
    X = vector_field(K1, lev, z, 0.0)
    assert np.allclose(X[0], hamiltonian_field(spatial_grad(F, z[0])))
    assert np.allclose(X[1], 0.0)
    K2 = StructuredHamiltonian(1, ((1.0, (Factor(1, F),)),))
    X2 = vector_field(K2, lev, z, 0.0)
    assert np.allclose(X2[1], -hamiltonian_field(spatial_grad(F, z[1])))
    assert np.allclose(X2[0], 0.0)


def test_vector_field_constant_k(torus, rng):
    lev = build_level(torus, 2)
    K = StructuredHamiltonian(2, ((3.0, (Factor(0, ConstSpatial(1.0)),)),))
    z = rng.random((4, 2))
    assert np.allclose(vector_field(K, lev, z, 0.5), 0.0)


def test_vector_field_product_expansion(torus, rng):
    """Four signed components of a full product match the hand expansion."""
    lev = build_level(torus, 2)
    Fs = [TrigSpatial(0.5, (1, 0), 0.2 * j) for j in range(4)]
    K = StructuredHamiltonian(2, ((1.0, tuple(Factor(j, Fs[j]) for j in range(4))),))
    z = rng.random((4, 2))
    X = vector_field(K, lev, z, 0.0)
    vals = [spatial_value(Fs[j], z[j]) for j in range(4)]
    signs = (1, -1, -1, 1)
    for j in range(4):
        others = np.prod([vals[m] for m in range(4) if m != j])
        assert np.allclose(X[j], signs[j] * others * hamiltonian_field(spatial_grad(Fs[j], z[j])))


def test_fd_oracle_matches_analytic(torus, rng):
    lev = build_level(torus, 2)
    K = StructuredHamiltonian(
        2,
        (
            (0.7, (Factor(0, TrigSpatial(0.8, (1, 1), 0.1), TrigTime(0.3, 1, 0.0, 1.0)),
                   Factor(2, TrigSpatial(0.5, (0, 2), 0.4)))),
            (0.3, (Factor(1, TrigSpatial(0.6, (2, 0), 0.9)),
                   Factor(3, TrigSpatial(0.4, (1, -1), 0.2)))),
        ),
    )
    z = rng.random((4, 2))
    X = vector_field(K, lev, z, 0.37)
    Xfd = fd_gradient_oracle(K, lev, z, 0.37, h=1e-5)
    rel = np.max(np.abs(X - Xfd)) / max(1.0, np.max(np.abs(X)))
    assert rel <= 1e-7


def test_fd_oracle_exact_on_linear(plane, rng):
    lev = build_level(plane, 1)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, PolySpatial(((2.0, (1, 0)), (3.0, (0, 1))))),)),))
    z = rng.random((2, 2))
    X = vector_field(K, lev, z, 0.0)
    Xfd = fd_gradient_oracle(K, lev, z, 0.0)
    assert np.max(np.abs(X - Xfd)) <= 1e-10


def test_fd_oracle_zero_on_constant(torus, rng):
    lev = build_level(torus, 1)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, ConstSpatial(4.0)),)),))
    assert np.max(np.abs(fd_gradient_oracle(K, lev, rng.random((2, 2)), 0.0))) == 0.0


def test_lift_standard_n1_formula(torus, rng):
    H = StructuredHamiltonian(
        0, ((1.0, (Factor(0, TrigSpatial(0.5, (1, 0)), TrigTime(0.3, 1, 0.2, 0.7)),)),)
    )
    L = lift(H, TransformChain.standard(1))
    z = rng.random((2, 2))
    for t in (0.0, 0.31, 0.77, 1.0):
        lhs = L.value(z, t)
        assert np.isclose(lhs, 0.5 * H.value(z[0:1], t / 2) + 0.5 * H.value(z[1:2], 1 - t / 2))


def test_lift_zero_hamiltonian(torus, rng):
    H = StructuredHamiltonian(0, ())
    L = lift(H, TransformChain.standard(2))
    assert L.value(rng.random((4, 2)), 0.5) == 0.0


def test_lift_perturbation_pullback(torus, rng):
    """The lifted perturbation integral equals the base integral on images."""
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.25)
    H = morse_base(0.3)
    errs = []
    for N in (512, 1024):
        loop = DiscreteCurve.from_function(torus, f, N)
        base = _trapz(H, loop)
        for n in (1, 2, 3):
            ch = TransformChain.standard(n)
            w = psi_chain(ch, loop)
            lifted = _trapz(lift(H, ch), w)
            errs.append(abs(lifted - base))
    assert max(errs[:3]) < 1e-4
    # halving the step contracts at second order or better
    assert max(errs[3:]) <= max(errs[:3]) / 3


def _trapz(ham, curve):
    ts = curve.times()
    vals = np.asarray(ham.value(curve.samples, ts))
    h = ts[1] - ts[0]
    return float(h * (0.5 * vals[0] + np.sum(vals[1:-1]) + 0.5 * vals[-1]))


def test_lift_general_chain_weights(torus, rng):
    """Rational chains need the rate weights, not the uniform 1/2^n."""
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.25)
    H = morse_base(0.3)
    ch = TransformChain.affine([Fr(1, 3)])
    loop = DiscreteCurve.from_function(torus, f, 3 * 512)
    w = psi_chain(ch, loop)
    assert abs(_trapz(lift(H, ch), w) - _trapz(H, loop)) < 1e-4


def test_lift_matches_copy_sum_oracle(rng):
    """lift(H, chain) is sum_j |tau_j'(t)| H(z_j, tau_j(t)) over the copies."""
    H = StructuredHamiltonian(
        0,
        (
            (0.8, (Factor(0, TrigSpatial(0.5, (1, 0), 0.2), TrigTime(0.4, 1, 0.0, 1.0)),)),
            (0.3, (Factor(0, PolySpatial(((1.0, (2, 1)),)), BumpTime(0.3, 0.4)),)),
        ),
    )
    std2, r13 = TransformChain.standard(2), TransformChain.affine([Fr(1, 3)])
    cases = [
        (std2, "derived", [copy_time_map(std2, m) for m in range(4)]),
        (std2, "printed", printed_time_maps(2)),
        (r13, "derived", [copy_time_map(r13, m) for m in range(2)]),
    ]
    for chain, variant, taus in cases:
        K = lift(H, chain, variant)
        z = rng.random((5, len(taus), 2))
        for t in (0.1, 0.5, 0.9, rng.random(5)):
            w = [np.abs(np.asarray(tau.deriv(t))) for tau in taus]
            value = sum(w[j] * H.value(z[:, j : j + 1, :], tau(t)) for j, tau in enumerate(taus))
            grad = np.stack(
                [w[j][..., None] * H.gradient(z[:, j : j + 1, :], tau(t))[:, 0, :] for j, tau in enumerate(taus)],
                axis=1,
            )
            assert np.allclose(K.value(z, t), value, rtol=1e-13, atol=1e-15)
            assert np.allclose(K.gradient(z, t), grad, rtol=1e-13, atol=1e-15)


def test_lift_printed_variant_guard():
    H = morse_base()
    with pytest.raises(ValueError):
        lift(H, TransformChain.affine([Fr(1, 3)]), variant="printed")


def test_energy_conservation_autonomous(torus, rng):
    from hamdelay.solvers import IntegratorConfig, integrate

    lev = build_level(torus, 1)
    K = StructuredHamiltonian(
        1,
        ((0.05, (Factor(0, TrigSpatial(1.0, (1, 0), 0.3)), Factor(1, TrigSpatial(1.0, (0, 1), 0.8)))),),
    )
    z0 = rng.random((2, 2))
    path = integrate(K, lev, z0, IntegratorConfig(2**10))
    vals = K.value(path.samples, 0.0)
    assert np.max(np.abs(vals - vals[0])) <= 1e-8


def test_hamiltonian_json_roundtrip():
    K = StructuredHamiltonian(
        1,
        (
            (0.7, (Factor(0, TrigSpatial(0.8, (1, 1), 0.1), TrigTime(0.3, 1, 0.0, 1.0)),)),
            (0.2, (Factor(1, PolySpatial(((1.0, (2, 0)),)), ConstTime(2.0)),)),
        ),
    )
    back = StructuredHamiltonian.from_json(K.to_json())
    z = np.random.default_rng(1).random((2, 2))
    assert np.isclose(back.value(z, 0.4), K.value(z, 0.4))
    assert np.allclose(back.gradient(z, 0.4), K.gradient(z, 0.4))


def test_lift_time_profile():
    prof = LiftTime(ConstTime(3.0), AffineMap(Fr(-1, 4), 1))
    assert np.isclose(prof(0.2), 0.75)


# ---------------------------------------------------------------------------
# the compiled evaluation against the per-factor definitions


def _oracle(K, z, t):
    """Value and gradient of K by the product rule over factor_value and
    factor_grad, term by term."""
    lead = np.broadcast_shapes(z.shape[:-2], np.shape(t))
    value = np.zeros(lead)
    grad = np.zeros(lead + z.shape[-2:])
    for c, factors in K.terms:
        vals = [factor_value(f, z[..., f.copy, :], t) for f in factors]
        value = value + c * np.prod(vals, axis=0)
        for i, f in enumerate(factors):
            others = c * np.prod([v for j, v in enumerate(vals) if j != i], axis=0)
            grad[..., f.copy, :] += np.asarray(others)[..., None] * factor_grad(f, z[..., f.copy, :], t)
    return value, grad


_reals = st.floats(-1.5, 1.5, allow_nan=False)
_trig_spatial = st.builds(
    TrigSpatial, _reals, st.tuples(st.integers(-2, 2), st.integers(-2, 2)), _reals
)
_poly_spatial = st.builds(
    PolySpatial,
    st.lists(st.tuples(_reals, st.tuples(st.integers(0, 3), st.integers(0, 3))), min_size=1, max_size=3).map(tuple),
)
_spatial = st.one_of(_trig_spatial, _poly_spatial, st.builds(ConstSpatial, _reals))
_base_time = st.one_of(
    st.builds(ConstTime, _reals),
    st.builds(TrigTime, _reals, st.integers(-2, 2), _reals, _reals),
    st.builds(BumpTime, st.floats(0, 1), st.floats(0.1, 0.5), _reals),
    st.lists(_reals, min_size=3, max_size=6).map(lambda v: TabulatedTime(tuple(v))),
)
_time = st.one_of(
    _base_time,
    st.builds(
        LiftTime,
        _base_time,
        st.builds(AffineMap, st.sampled_from([Fr(1, 2), Fr(-1, 4), Fr(3, 2)]), st.sampled_from([0, Fr(1, 3), 1])),
    ),
)


@st.composite
def _hamiltonians(draw):
    level = draw(st.integers(0, 2))
    copies = 2**level
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        used = draw(st.lists(st.integers(0, copies - 1), min_size=1, max_size=min(3, copies), unique=True))
        factors = tuple(Factor(j, draw(_spatial), draw(_time)) for j in used)
        terms.append((draw(_reals), factors))
    return StructuredHamiltonian(level, tuple(terms))


@given(
    _hamiltonians(),
    st.sampled_from([(), (3,), (2, 3)]),
    st.sampled_from(["float", "0-d", "per-row"]),
    st.integers(0, 2**32 - 1),
)
def test_compiled_matches_product_rule_oracle(K, lead, t_kind, seed):
    """value and gradient of the compiled form match the product rule over
    factor_value / factor_grad for trig, poly and const factors, every kind
    of time profile, 0-3 factors per term, any leading shape and t form."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, lead + (K.copies, 2))
    t = {"float": float(rng.random()), "0-d": np.array(rng.random()), "per-row": rng.random(lead)}[t_kind]
    value, grad = _oracle(K, z, t)
    assert np.shape(K.value(z, t)) == lead and K.gradient(z, t).shape == z.shape
    np.testing.assert_allclose(K.value(z, t), value, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(K.gradient(z, t), grad, rtol=1e-13, atol=1e-13)


PRESETS = sorted(e.name[:-5] for e in resources.files("hamdelay.presets").iterdir() if e.name.endswith(".json"))


@pytest.mark.parametrize("block_elements", [hamiltonians.BLOCK_ELEMENTS, 64], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("name", PRESETS)
def test_vector_field_rows_independent_of_batch(name, block_elements, monkeypatch):
    """Every row of an 81-row call is bitwise the row's own call, alone and
    as a batch of one, also when the batch spans several row blocks."""
    monkeypatch.setattr(hamiltonians, "BLOCK_ELEMENTS", block_elements)
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    K = cfg.structured_hamiltonian()
    _assert_rows_independent(cfg.structured_hamiltonian(), build_level(cfg.space, cfg.chain.level))


def test_rows_independent_of_batch_in_wide_sums(torus):
    """Sums over 12 terms, 12 factors of one copy and 9 monomials, where
    numpy's own sum would go pairwise for a batch of one row."""
    trig = [(0.3, (Factor(0, TrigSpatial(0.5, (k % 3, 1), 0.1 * k), TrigTime(0.2, k % 2 + 1, 0.0, 1.0)),)) for k in range(11)]
    poly = PolySpatial(tuple((0.1 * k - 0.4, (k % 3, k % 4)) for k in range(9)))
    K = StructuredHamiltonian(1, tuple(trig) + ((0.7, (Factor(0, poly), Factor(1, TrigSpatial(0.4, (1, 0))))),))
    _assert_rows_independent(K, build_level(torus, 1))


def _assert_rows_independent(K, lev):
    rng = np.random.default_rng(81)
    z = rng.uniform(-1.0, 1.0, (81, lev.copies, lev.space.dim))
    ts = rng.random(81)
    batch, per_row = vector_field(K, lev, z, 0.37), vector_field(K, lev, z, ts)
    values = K.value(z, 0.37)
    for i in range(81):
        assert np.array_equal(vector_field(K, lev, z[i], 0.37), batch[i])
        assert np.array_equal(vector_field(K, lev, z[i : i + 1], 0.37)[0], batch[i])
        assert np.array_equal(vector_field(K, lev, z[i : i + 1], ts[i : i + 1])[0], per_row[i])
        assert np.array_equal(K.value(z[i : i + 1], 0.37)[0], values[i])


@pytest.mark.parametrize("name", PRESETS)
def test_slice_times_give_float_t_rows(name):
    """Per-row times, as the rows of a sliced sweep read them, and a weight
    table passed in give row b bitwise the field of a float-t call at its
    time."""
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    K, lev = cfg.structured_hamiltonian(), build_level(cfg.space, cfg.chain.level)
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.0, 1.0, (81, lev.copies, lev.space.dim))
    times, rows = np.arange(5) * 0.125 + 0.0625, rng.integers(0, 5, 81)
    got = vector_field(K, lev, z, times[rows])
    for i in range(81):
        assert np.array_equal(got[i], vector_field(K, lev, z[i : i + 1], float(times[rows[i]]))[0])
    table = K._program(lev.space.dim).table(times[rows])
    assert np.array_equal(vector_field(K, lev, z, table), got)


def test_sum0_adds_in_index_order_in_any_layout():
    """A (monomials, slots, dims, rows) operand not in C order, as a
    fancy-indexed table can make it: its one-row sum is that row of the
    81-row sum, and both are the in-order adds.  numpy's own sum went
    pairwise over the one-row operand here."""
    batch = np.random.default_rng(0).standard_normal((9, 1, 2, 81))
    one = np.asfortranarray(batch[..., :1])
    assert one.shape == (9, 1, 2, 1) and not one.flags.c_contiguous
    want = batch[0] + batch[1]
    for term in batch[2:]:
        want += term
    assert np.array_equal(hamiltonians._sum0(batch), want)
    assert np.array_equal(hamiltonians._sum0(one)[..., 0], want[..., 0])


def test_two_hamiltonians_share_no_table(torus, rng):
    """Two Hamiltonians that differ only in a time profile share nothing:
    sweeps and float-t calls that alternate between them give each its own
    field, bitwise what a fresh copy gives."""
    from hamdelay.solvers import _rk4, _stage

    lev = build_level(torus, 1)
    F = TrigSpatial(0.6, (1, 1), 0.2)

    def ham(profile):
        return StructuredHamiltonian(1, ((0.7, (Factor(0, F, profile), Factor(1, F))), (0.2, (Factor(1, F, profile),))))

    profiles = TrigTime(0.3, 1, 0.0, 1.0), TrigTime(0.5, 2, 0.1, 1.0)
    K1, K2 = (ham(p) for p in profiles)
    z = rng.random((5, 2, 2))
    first = vector_field(K1, lev, z, 0.25)
    assert np.array_equal(vector_field(K1, lev, z, np.float64(0.25)), first)
    X2 = vector_field(K2, lev, z, 0.25)
    assert not np.allclose(X2, first)
    np.testing.assert_allclose(K2.gradient(z, 0.25), _oracle(K2, z, 0.25)[1], rtol=1e-13, atol=1e-13)
    assert np.array_equal(vector_field(K1, lev, z, 0.25), first)
    order = (0, 1, 0, 1)
    ends = [_rk4(_stage((K1, K2)[k], lev), z, 16) for k in order]
    assert not np.array_equal(ends[0], ends[1])
    for k, end in zip(order, ends):
        assert end.tobytes() == _rk4(_stage(ham(profiles[k]), lev), z, 16).tobytes()


# ---------------------------------------------------------------------------
# the field kernel against the gather-and-sum evaluation it replaced


class _ScatterOracle:
    """The earlier compiled gradient: slots trig first, each slot's full
    gradient, then a 2-D gather of every copy's slots through a padded
    (width, copies) table and the output columns, a sum over the table in
    index order, and the level signs applied last."""

    def __init__(self, ham, dim):
        factors = [(k, f) for k, (_, fs) in enumerate(ham.terms) for f in fs]
        trig = [i for i, (_, f) in enumerate(factors) if isinstance(f.spatial, TrigSpatial)]
        poly = [i for i, (_, f) in enumerate(factors) if not isinstance(f.spatial, TrigSpatial)]
        order = trig + poly
        n, nt = len(order), len(trig)
        self.dim, self.n, self.nt = dim, n, nt
        self.copy = np.array([factors[i][1].copy for i in order], dtype=int)
        self.profiles = tuple(factors[i][1].time for i in order)
        parts = [factors[i][1].spatial for i in trig]
        self.freq = np.array([s.freq for s in parts], dtype=float).reshape(nt, dim, 1)
        self.amp = np.array([s.amp for s in parts], dtype=float)[:, None]
        self.phase = np.array([s.phase for s in parts], dtype=float)[:, None]
        monos = []
        for i in poly:
            s = factors[i][1].spatial
            monos.append(s.terms if isinstance(s, PolySpatial) else ((s.value_const, (0,) * dim),))
        width = max((len(m) for m in monos), default=0)
        coeff = np.zeros((width, len(poly)))
        exp = np.zeros((width, len(poly), dim), dtype=int)
        for p, m in enumerate(monos):
            for w, (c, es) in enumerate(m):
                coeff[w, p], exp[w, p] = c, es
        self.mono_coeff, self.mono_exp = coeff[..., None], exp[..., None]
        self.deriv_coeff = (coeff[..., None] * exp)[..., None]
        self.deriv_exp = np.maximum(exp[:, :, None, :] - np.eye(dim, dtype=int), 0)[..., None]
        term_coeff = np.array([c for c, _ in ham.terms], dtype=float)
        term = np.array([factors[i][0] for i in order], dtype=int)
        amp = np.concatenate([-hamiltonians.TWO_PI * self.amp[:, 0], np.ones(len(poly)), [0.0]])
        self.grad_coeff = (np.append(term_coeff[term], 0.0) * amp)[:, None]
        slot_of = np.argsort(order)
        members = [[] for _ in ham.terms]
        by_copy = [[] for _ in range(ham.copies)]
        for i, (k, f) in enumerate(factors):
            members[k].append(slot_of[i])
            by_copy[f.copy].append(slot_of[i])
        padded = hamiltonians._padded
        self.others = padded([[j for j in members[term[s]] if j != s] for s in range(n)] + [[]], n, 0)
        self.gather = padded(by_copy, n, 1)
        self.block = max(1, hamiltonians.BLOCK_ELEMENTS // ((n + 1) * dim))

    def weights(self, t):
        if isinstance(t, float):  # the one profile rule: a float t as a one-element array
            return np.array([p(np.array([t]))[0] for p in self.profiles] + [1.0])[:, None]
        return np.stack([p(t) for p in self.profiles] + [np.ones(t.shape)])

    def spatial(self, zf, value):
        n, nt = self.n, self.nt
        rows = zf.shape[-1]
        values = np.ones((n + 1, rows)) if value else None
        grads = np.zeros((n + 1, self.dim, rows))
        if nt:
            ph = zf[:nt, 0] * self.freq[:, 0]
            for i in range(1, self.dim):
                ph += zf[:nt, i] * self.freq[:, i]
            ph *= hamiltonians.TWO_PI
            ph += self.phase
            if value:
                np.multiply(self.amp, np.cos(ph), out=values[:nt])
            np.multiply(np.sin(ph)[:, None], self.freq, out=grads[:nt])
        if nt < n:
            zp = zf[nt:]
            if value:
                values[nt:n] = hamiltonians._sum0(self.mono_coeff * np.prod(zp**self.mono_exp, axis=2))
            grads[nt:n] = hamiltonians._sum0(self.deriv_coeff * np.prod(zp[:, None] ** self.deriv_exp, axis=3))
        return values, grads

    def scatter(self, z, t, signs=None):
        cols, sign = np.arange(self.dim), None
        if signs is not None:
            half = self.dim // 2
            cols = np.roll(cols, half)
            sign = np.asarray(signs, float)[:, None, None] * np.repeat([-1.0, 1.0], half)[:, None]
            sign = hamiltonians.FIELD_SIGN * sign
        index = self.gather.T[:, :, None]
        width = self.others.shape[1]
        lead = z.shape[:-2]
        zb = z.reshape(-1, *z.shape[-2:])
        if np.ndim(t) == 0:
            w = self.weights(float(t))
        else:
            w = self.weights(np.broadcast_to(np.asarray(t, float), lead).reshape(-1))
        out = np.empty((len(zb), len(self.gather), self.dim))
        for lo in range(0, len(zb), self.block):
            hi = lo + self.block
            zf = np.ascontiguousarray(zb[lo:hi].transpose(1, 2, 0))[self.copy]
            wb = w if w.shape[1] == 1 else w[:, lo:hi]
            values, grads = self.spatial(zf, width > 0)
            scale = self.grad_coeff * wb
            if width:
                v = values * wb
                for j in range(width):
                    scale = scale * v[self.others[:, j]]
            res = hamiltonians._sum0((grads * scale[:, None])[index, cols])
            res = res if sign is None else res * sign
            out[lo:hi] = res.transpose(2, 0, 1)
        return out.reshape(lead + (len(self.gather), self.dim))


def _assert_matches_scatter(K, lev, z, t):
    """vector_field and gradient equal the scatter oracle entry by entry,
    NaN where it has NaN; folding the signs may flip the sign of an exact
    zero, which compares equal."""
    oracle = _ScatterOracle(K, z.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        for got, want in (
            (vector_field(K, lev, z, t), oracle.scatter(z, t, lev.sign_vector)),
            (K.gradient(z, t), oracle.scatter(z, t)),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)


def _scatter_cases(K, lev, rng):
    """Batches of 1 and 81 rows, one row without a batch axis, a (2, 3)
    batch, float and per-row t; rows holding +-inf or NaN, and rows in the
    overflow band, whose coordinates are finite but whose squares (1e160)
    or fourth powers (1e80) overflow; and each of those rows as a one-row
    batch."""
    z = rng.uniform(-1.0, 1.0, (81, lev.copies, lev.space.dim))
    z[5, 0, 0], z[17, -1, -1], z[40] = np.inf, -np.inf, np.inf
    z[23, 0, -1], z[61] = np.nan, np.nan
    z[29, 0, 0], z[30, -1, -1], z[33] = 1e160, -1e160, 1e160
    z[47, 0, -1], z[48, -1, 0], z[52] = 1e80, -1e80, -1e80
    ts = rng.random(81)
    for rows in (slice(0, 1), slice(0, 81)):
        _assert_matches_scatter(K, lev, z[rows], 0.37)
        _assert_matches_scatter(K, lev, z[rows], ts[rows])
    _assert_matches_scatter(K, lev, z[3], 0.61)
    _assert_matches_scatter(K, lev, z[:6].reshape(2, 3, lev.copies, -1), ts[:6].reshape(2, 3))
    for row in (5, 17, 23, 29, 30, 47, 48):
        _assert_matches_scatter(K, lev, z[row : row + 1], ts[row : row + 1])


@pytest.mark.parametrize("block_elements", [hamiltonians.BLOCK_ELEMENTS, 64], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("name", PRESETS)
def test_field_matches_scatter_oracle_on_presets(name, block_elements, monkeypatch):
    monkeypatch.setattr(hamiltonians, "BLOCK_ELEMENTS", block_elements)
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    _scatter_cases(cfg.structured_hamiltonian(), build_level(cfg.space, cfg.chain.level), np.random.default_rng(7))


def wide_and_empty_copies():
    """A level-2 Hamiltonian on dim 2: a copy of 12 slots, trig, poly and
    const slots interleaved within copies, a copy of one slot and an empty
    copy, terms of up to three factors."""
    poly = PolySpatial(((0.3, (2, 1)), (-0.7, (0, 3)), (1.1, (1, 0))))
    trig = [TrigSpatial(0.2 + 0.05 * k, (k % 3 - 1, (k + 1) % 2), 0.1 * k) for k in range(12)]
    terms = [(0.4 + 0.1 * k, (Factor(0, trig[k], TrigTime(0.3, k % 2 + 1, 0.1, 1.0)),)) for k in range(9)]
    terms += [
        (0.9, (Factor(0, poly), Factor(2, trig[9]), Factor(3, ConstSpatial(1.7), BumpTime(0.4, 0.3)))),
        (-0.5, (Factor(3, trig[10]), Factor(0, ConstSpatial(0.6)))),
        (0.25, (Factor(0, trig[11]), Factor(3, poly))),
    ]
    return StructuredHamiltonian(2, tuple(terms))


@pytest.mark.parametrize("block_elements", [hamiltonians.BLOCK_ELEMENTS, 64], ids=["one-block", "many-blocks"])
def test_field_matches_scatter_oracle_on_wide_and_empty_copies(block_elements, torus, plane, monkeypatch):
    """Level 2 with a copy of 12 slots, trig, poly and const slots
    interleaved within copies, a copy of one slot and an empty copy, terms
    of up to three factors; a plane Hamiltonian of poly slots alone; the
    lifted quartic x^4 + y^4 and cubic x^3 + xy/2; and monomials of up to
    four factors on a 4-dimensional plane."""
    from tests.test_solvers import quartic_plane_K

    monkeypatch.setattr(hamiltonians, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(12)
    K = wide_and_empty_copies()
    prog = K._program(2)
    assert np.bincount(prog.copy, minlength=4).tolist() == [12, 0, 1, 3]
    _scatter_cases(K, build_level(torus, 2), rng)
    poly = PolySpatial(((0.3, (2, 1)), (-0.7, (0, 3)), (1.1, (1, 0))))
    square = PolySpatial(((1.0, (0, 2)),))
    P = StructuredHamiltonian(1, ((0.5, (Factor(0, poly), Factor(1, square))), (2.0, (Factor(1, poly),))))
    _scatter_cases(P, build_level(plane, 1), rng)
    _scatter_cases(StructuredHamiltonian(1, ()), build_level(torus, 1), rng)
    _scatter_cases(quartic_plane_K(), build_level(plane, 1), rng)
    cubic = StructuredHamiltonian(0, ((1.0, (Factor(0, PolySpatial(((1.0, (3, 0)), (0.5, (1, 1))))),)),))
    _scatter_cases(lift(cubic, TransformChain.standard(1)), build_level(plane, 1), rng)
    wide = PolySpatial(((0.7, (2, 1, 3, 1)), (-0.4, (0, 2, 0, 1)), (1.3, (1, 0, 0, 0))))
    terms = ((0.6, (Factor(0, wide), Factor(1, PolySpatial(((0.9, (1, 1, 1, 0)),))))), (1.1, (Factor(1, wide),)))
    _scatter_cases(StructuredHamiltonian(1, terms), build_level(PhaseSpace(2, "plane"), 1), rng)


def test_one_power_tables_match_scatter_oracle_and_pow(plane):
    """Polynomials whose tables hold one distinct power, x^2 + y at level 0
    and lifted and x^3 (whose trimmed derivative table holds x^2 alone),
    and x^2 + y^2 with two, at 1, 7 and block + 5 rows, with rows in the
    overflow band and NaN rows: field and gradient are bitwise the scatter
    oracle's, and the value is elementwise x ** e with an exponent operand
    of x's shape, NaN compared as NaN.  np.power squares by its own fast
    path where it reads the exponent with stride 0, which it does for a
    one-element exponent (and for a one-column one past 4096 rows, numpy
    2.4), and that last bit can differ from pow's, so the kernel gives it
    an exponent of the powers' own shape."""

    def poly(*monomials):
        return StructuredHamiltonian(0, ((1.0, (Factor(0, PolySpatial(tuple((1.0, e) for e in monomials))),)),))

    def power(a, e):
        return a ** np.full(a.shape, float(e))

    x2y = poly((2, 0), (0, 1))
    cases = (
        (x2y, lambda x, y: power(x, 2) + y),
        (lift(x2y, TransformChain.standard(1)), lambda x, y: power(x, 2) + y),
        (poly((3, 0)), lambda x, y: power(x, 3)),
        (poly((2, 0), (0, 2)), lambda x, y: power(x, 2) + power(y, 2)),
    )
    rng = np.random.default_rng(5)
    for K, monomials in cases:
        lev = build_level(plane, K.level)
        prog = K._program(2)
        weights = prog.table(np.array([0.37]))[0][:-1, 0, 0]  # per copy: one slot each
        z = rng.uniform(-1.0, 1.0, (prog.block + 5, lev.copies, 2))
        z[1, 0, 0], z[2, -1, 0], z[3, 0, 1] = 1e160, -1e80, np.nan
        z[4] = np.nan
        for batch in (z[:1], z[1:2], z[3:4], z[4:5], z[:7], z):
            _assert_matches_scatter(K, lev, batch, 0.37)
            with np.errstate(over="ignore", invalid="ignore"):
                m = monomials(batch[..., 0], batch[..., 1])
                want = m[:, 0] * weights[0]
                for c in range(1, lev.copies):
                    want = want + m[:, c] * weights[c]
                got = K.value(batch, 0.37)
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize(
    "name,span",
    [("torus-morse-n1", (0, 2, 2)), ("product-T4", (0, 2, 2)), ("sum-n2", (0, 4, 1)), ("rr-chain-13", (1, 3, 1)), ("plane-oscillator", (0, 2, 1))],
)
def test_copy_major_layouts_read_views(name, span):
    """Where copies c0 .. c1 - 1 hold k slots each, the kernel reads the
    phases and sums the ranks through views, (c0, c1, k); the wide program
    with an empty copy keeps both gathers."""
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    prog = cfg.structured_hamiltonian()._program(cfg.space.dim)
    assert prog.rank_span == span
    if prog.n_trig:
        assert prog.trig_read == (slice(span[0], span[1]), None) and prog.trig_shape == (span[1] - span[0], span[2])
    wide = wide_and_empty_copies()._program(2)
    assert wide.rank_span is None and isinstance(wide.trig_read, np.ndarray)


@given(_hamiltonians(), st.sampled_from([(), (1,), (81,), (2, 3)]), st.booleans(), st.integers(0, 2**32 - 1))
def test_field_matches_scatter_oracle(K, lead, per_row, seed):
    rng = np.random.default_rng(seed)
    lev = build_level(PhaseSpace(1, "torus"), K.level)
    z = rng.uniform(-1.0, 1.0, lead + (K.copies, 2))
    t = rng.random(lead) if per_row else float(rng.random())
    _assert_matches_scatter(K, lev, z, t)


@pytest.mark.parametrize("n_steps", [9, 128, 1000])
def test_sweep_and_one_element_tables_are_bitwise_equal(n_steps):
    """At every stage time of an RK4 sweep, the column of the sweep's table,
    of a per-row table and the one-element table of a float t hold bitwise
    the same weights and gradient weights, for every kind of time profile:
    constant, trig, bump, tabulated, and lifted over an affine and over
    non-affine time maps."""
    from tests.test_solvers import _spline_chain

    spline = _spline_chain().table
    profiles = [
        ConstTime(1.3),
        TrigTime(0.4, 2, 0.3, 0.5),
        BumpTime(0.4, 0.3, 1.2),
        BumpTime(0.3, 0.2),
        TabulatedTime((0.1, 0.5, 0.9, 0.4)),
        LiftTime(TrigTime(0.3, 1, 0.2, 1.0), AffineMap(Fr(-1, 4), 1)),
        LiftTime(BumpTime(0.6, 0.3), copy_time_map(_spline_chain(), 1)),
        LiftTime(TrigTime(0.3, 1, 0.2, 1.0), spline[0].theta),
    ]
    F = TrigSpatial(0.5, (1, 0))
    prog = StructuredHamiltonian(0, tuple((1.0, (Factor(0, F, p),)) for p in profiles))._program(2)
    h = 1.0 / n_steps
    t = np.arange(n_steps)[:, None] * h
    sweep = np.stack([t, t + 0.5 * h, t + h], axis=1).ravel()  # the stage times as _rk4 lays them out
    # BumpTime(0.4, 0.3, 1.2) at a 0-d time rounds this one differently
    times = np.append(sweep, 0.45710433692881935)
    rng = np.random.default_rng(2)
    rows = rng.permutation(len(times))
    tables = prog.table(times), prog.table(times[rows])
    for b, u in enumerate(times.tolist()):
        position = np.flatnonzero(rows == b)[0]
        for one, whole, per_row in zip(prog.table(np.array([u])), *tables):
            assert one[..., 0].tobytes() == whole[..., b].tobytes() == per_row[..., position].tobytes()
