import json
from fractions import Fraction as Fr
from importlib import resources

import numpy as np
import pytest

from hamdelay.cli import ExperimentConfig

from hamdelay.geometry import PhaseSpace, build_level
from hamdelay.transforms import AffineMap, DiscreteCurve, TransformChain
from hamdelay.hamiltonians import (
    ConstSpatial,
    ConstTime,
    Factor,
    StructuredHamiltonian,
    TrigSpatial,
    TrigTime,
    lift,
)
from hamdelay.delaygen import generate, render, rhs_eval, rhs_plan
from hamdelay.solvers import IntegratorConfig, integrate, pullback_chord
from hamdelay.solvers import Chord
from tests.oracles import equals_mod1, rhs_eval_oracle


def trig_factor(copy, freq, phase=0.0, amp=0.2):
    return Factor(copy, TrigSpatial(amp, freq, phase))


def product_1423(level=2):
    return StructuredHamiltonian(
        level,
        (
            (1.0, (trig_factor(0, (1, 0), 0.0), trig_factor(3, (0, 1), 0.4))),
            (1.0, (trig_factor(1, (0, 1), 0.8), trig_factor(2, (1, 0), 1.2))),
        ),
    )


def test_generate_rejects_level_mismatch():
    with pytest.raises(ValueError):
        generate(product_1423(2), TransformChain.standard(1))


def test_sum_form_n2():
    K = StructuredHamiltonian(
        2, tuple((1.0, (trig_factor(j, (1, 0), 0.1 * j),)) for j in range(4))
    )
    d = generate(K, TransformChain.standard(2))
    drivers = [seg.terms[0].driver.copy for seg in d.segments]
    assert drivers == [0, 2, 3, 1]
    thetas = [seg.theta for seg in d.segments]
    assert thetas == [AffineMap(4, 0), AffineMap(-4, 2), AffineMap(4, -2), AffineMap(-4, 4)]
    assert all(seg.constant_rate() == 4 for seg in d.segments)
    assert all(len(seg.terms) == 1 and not seg.terms[0].coefficients for seg in d.segments)


def test_product_1423_structure():
    d = generate(product_1423(), TransformChain.standard(2))
    rows = [(seg.terms[0].driver.copy, seg.terms[0].coefficients[0].factor.copy) for seg in d.segments]
    assert rows == [(0, 3), (2, 1), (3, 0), (1, 2)]
    for seg in d.segments:
        assert len(seg.terms) == 1
        delay = seg.terms[0].coefficients[0].delay
        assert equals_mod1(delay, AffineMap(1, Fr(1, 2)))


def test_product_form_level1():
    """Simplest delay system: two segments, rates 2, the partner read at 1-t."""
    K = StructuredHamiltonian(1, ((1.0, (trig_factor(0, (1, 0)), trig_factor(1, (0, 1)))),))
    d = generate(K, TransformChain.standard(1))
    assert [seg.constant_rate() for seg in d.segments] == [2, 2]
    first, second = d.segments
    assert (first.terms[0].driver.copy, first.terms[0].coefficients[0].factor.copy) == (0, 1)
    assert (second.terms[0].driver.copy, second.terms[0].coefficients[0].factor.copy) == (1, 0)
    for seg in d.segments:
        assert equals_mod1(seg.terms[0].coefficients[0].delay, AffineMap(-1, 1))
    assert first.theta == AffineMap(2, 0) and second.theta == AffineMap(-2, 2)


def test_full_product_level2_three_delay_rows():
    """The full product at level 2: every row reads the three partners at
    1/2+t, 1/2-t, and 1-t (mod 1), with the frozen index assignments."""
    K = StructuredHamiltonian(2, ((1.0, tuple(trig_factor(j, (1, 0), 0.1 * j) for j in range(4))),))
    d = generate(K, TransformChain.standard(2))
    slot_maps = [AffineMap(1, Fr(1, 2)), AffineMap(-1, Fr(1, 2)), AffineMap(-1, 1)]
    # per row: driver copy and the copies read at the three slots (1-based)
    expected = [
        (1, (4, 3, 2)),
        (3, (2, 1, 4)),
        (4, (1, 2, 3)),
        (2, (3, 4, 1)),
    ]
    for seg, (driver, slots) in zip(d.segments, expected):
        term = seg.terms[0]
        assert term.driver.copy + 1 == driver
        got = {c.factor.copy + 1: c.delay for c in term.coefficients}
        for s, copy in enumerate(slots):
            assert equals_mod1(got[copy], slot_maps[s]), (driver, copy, got[copy])


def test_zero_hamiltonian_all_zero_rows(torus):
    K = StructuredHamiltonian(2, ())
    d = generate(K, TransformChain.standard(2))
    assert all(not seg.terms for seg in d.segments)
    loop = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.2, 0.8]), 64, breakpoints=d.breakpoints())
    assert np.allclose(rhs_eval(d, loop, np.linspace(0, 0.99, 17)), 0.0)


def test_rhs_zero_at_critical_constant(torus):
    """A constant loop at a joint critical point kills every driver field."""
    K = StructuredHamiltonian(
        1,
        ((1.0, (trig_factor(0, (1, 0)), trig_factor(1, (0, 1)))),),
    )
    d = generate(K, TransformChain.standard(1))
    loop = DiscreteCurve.from_function(
        torus, lambda t: np.full((len(t), 2), [0.0, 0.5]), 32, breakpoints=d.breakpoints()
    )
    assert np.max(np.abs(rhs_eval(d, loop, np.linspace(0, 0.9, 10)))) < 1e-14


def test_rhs_scalar_matches_array_on_spline_chain(torus):
    """One time per segment of a spline chain: a scalar call, whose other
    segment owns no point, equals its row of the array call bitwise."""
    from hamdelay.transforms import MonotoneSplineMap, ReparamPair

    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    beta = MonotoneSplineMap(xs, 1.0 - 0.35 * xs - 0.15 * xs**2)
    chain = TransformChain((ReparamPair(alpha, beta, 0.5),))
    K = StructuredHamiltonian(1, ((1.0, (trig_factor(0, (1, 0)), trig_factor(1, (0, 1)))),))
    d = generate(K, chain)
    loop = DiscreteCurve.from_function(
        torus, lambda t: np.hstack([0.3 + 0.1 * np.sin(2 * np.pi * t), 0.6 + 0.1 * np.cos(2 * np.pi * t)]), 64,
        breakpoints=d.breakpoints(),
    )
    ts = np.array([0.2, 0.7])
    rows = rhs_eval(d, loop, ts)
    for t, row in zip(ts, rows):
        assert np.array_equal(rhs_eval(d, loop, float(t)), row)


def test_rhs_breakpoint_takes_right_limit(torus):
    K = product_1423()
    d = generate(K, TransformChain.standard(2))
    loop = DiscreteCurve.from_function(
        torus, lambda t: np.hstack([0.3 + 0.01 * np.sin(2 * np.pi * t), np.full_like(t, 0.7)]), 64,
        breakpoints=d.breakpoints(),
    )
    at_bp = rhs_eval(d, loop, 0.25)
    just_right = rhs_eval(d, loop, 0.2500001)
    assert np.allclose(at_bp, just_right, atol=1e-4)


def test_scaling_property(torus, rng):
    """Scaling K scales every RHS term; maps do not change."""
    K = product_1423()
    lam = 3.7
    K2 = StructuredHamiltonian(2, tuple((lam * c, fs) for c, fs in K.terms))
    ch = TransformChain.standard(2)
    d1, d2 = generate(K, ch), generate(K2, ch)
    for s1, s2 in zip(d1.segments, d2.segments):
        assert s1.theta == s2.theta
        for t1, t2 in zip(s1.terms, s2.terms):
            for c1, c2 in zip(t1.coefficients, t2.coefficients):
                assert c1.delay == c2.delay
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.1)
    loop = DiscreteCurve.from_function(torus, f, 64, breakpoints=d1.breakpoints())
    ts = np.linspace(0.01, 0.99, 13)
    # delayed coefficient factors scale too: one factor per term here, so
    # the RHS scales by lam^2 only when both term factors scale; with the
    # coefficient folded into the term weight the RHS scales linearly
    assert np.allclose(rhs_eval(d2, loop, ts), lam * rhs_eval(d1, loop, ts))


def test_compiler_correctness_against_flow(torus, rng):
    """Pullback of an integrated chord satisfies the generated equation."""
    K = StructuredHamiltonian(
        1,
        (
            (0.08, (Factor(0, TrigSpatial(0.3, (1, 0)), TrigTime(0.4, 1, 0.0, 1.0)),
                    Factor(1, TrigSpatial(0.3, (0, 1))))),
            (0.06, (Factor(0, TrigSpatial(0.3, (0, 1), 0.9)),
                    Factor(1, TrigSpatial(0.3, (1, 0), 0.9), TrigTime(0.3, 1, 1.1, 1.0)))),
        ),
    )
    from hamdelay.solvers import solve_chord

    ch = TransformChain.standard(1)
    lev = build_level(torus, 1)
    d = generate(K, ch)
    chord = solve_chord(K, lev, np.array([[0.3, 0.6]]), integ=IntegratorConfig(2**10))
    assert isinstance(chord, Chord), chord
    v = pullback_chord(chord, ch)
    ks = np.arange(1, 512)
    ts = ks / 1024
    rhs = rhs_eval(d, v, ts)
    h = 1.0 / 1024
    seg = v.samples[:513, 0, :]
    deriv = np.array([torus.wrapped_difference(seg[k + 1], seg[k - 1]) / (2 * h) for k in ks])
    assert np.max(np.abs(deriv - rhs)) < 1e-3


def test_lifted_descriptor_reduces_to_base_ode(torus, rng):
    """For a lifted Hamiltonian the delay equation is the base equation."""
    from hamdelay.hamiltonians import vector_field

    H = StructuredHamiltonian(
        0, ((1.0, (Factor(0, TrigSpatial(0.05, (1, 0)), TrigTime(0.3, 1, 0.2, 1.0)),)),)
    )
    ch = TransformChain.standard(2)
    d = generate(lift(H, ch), ch)
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.2)
    loop = DiscreteCurve.from_function(torus, f, 64, breakpoints=d.breakpoints())
    lev0 = build_level(torus, 0)
    ts = np.linspace(0.0, 0.98, 23)
    rhs = rhs_eval(d, loop, ts)
    direct = np.array(
        [vector_field(H, lev0, loop.interpolant().evaluate(np.array([t]))[0], t)[0] for t in ts]
    )
    assert np.max(np.abs(rhs - direct)) < 1e-6


def test_render_text_1423():
    d = generate(product_1423(), TransformChain.standard(2))
    text = render(d, "text")
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0] == "(1/4) v'(t) = F4[4t](v(1/2 + t)) X_F1[4t](v(t)),  t in [0, 1/4]"
    assert "F1[4t - 2](v(t - 1/2))" in lines[2]


def test_render_zero_rows():
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    assert render(d, "text").splitlines() == [
        "v'(t) = 0,  t in [0, 1/2]",
        "v'(t) = 0,  t in [1/2, 1]",
    ]


def test_render_rr_zero_segments():
    """Equal-r chain with factors on the middle copies leaves two dead zones."""
    r = Fr(1, 3)
    K = StructuredHamiltonian(
        2, ((1.0, (trig_factor(1, (0, 1), 0.5), trig_factor(2, (1, 0), 1.0))),)
    )
    d = generate(K, TransformChain.affine([r, r]))
    intervals = [(seg.lo, seg.hi, bool(seg.terms)) for seg in d.segments]
    assert intervals == [
        (Fr(0), Fr(1, 9), False),
        (Fr(1, 9), Fr(1, 3), True),
        (Fr(1, 3), Fr(7, 9), False),
        (Fr(7, 9), Fr(1), True),
    ]
    active = [seg for seg in d.segments if seg.terms]
    assert equals_mod1(active[0].terms[0].coefficients[0].delay, AffineMap(1, 1 - r))
    assert equals_mod1(active[1].terms[0].coefficients[0].delay, AffineMap(1, r - 1))
    assert active[0].constant_rate() == Fr(9, 2)


def test_render_latex_and_json():
    d = generate(product_1423(), TransformChain.standard(2))
    tex = render(d, "latex")
    assert tex.startswith(r"\begin{array}")
    assert r"X_{F^{1}_{4t}}(v(t))" in tex
    import json

    data = json.loads(render(d, "json"))
    assert data["level"] == 2
    assert len(data["segments"]) == 4
    assert data["segments"][0]["rate"] == "4"
    assert data["segments"][0]["terms"][0]["coefficients"][0]["delay"] == {
        "slope": "1",
        "intercept": "1/2",
    }


def test_row_order_stable():
    d = generate(product_1423(), TransformChain.standard(2))
    los = [float(seg.lo) for seg in d.segments]
    assert los == sorted(los)


def test_symbolic_generation_scales_past_desk_size():
    """Levels beyond the numerical desk scale still compile exactly."""
    n = 6
    K = StructuredHamiltonian(
        n, ((1.0, tuple(trig_factor(j, (1, 0), 0.01 * j) for j in range(2**n))),)
    )
    d = generate(K, TransformChain.standard(n))
    assert len(d.segments) == 64
    assert all(seg.constant_rate() == 64 for seg in d.segments)
    assert sum(len(seg.terms[0].coefficients) for seg in d.segments) == 64 * 63
    # every delayed-time map is an exact unit-slope shift on the 1/64 grid
    for seg in d.segments:
        for c in seg.terms[0].coefficients:
            assert abs(c.delay.slope) == 1
            assert (c.delay.intercept * 64).denominator == 1


# ---------------------------------------------------------------------------
# the compiled right-hand side against the per-factor definition


def _assert_matches_rhs_oracle(d, loop, ts):
    """rhs_eval matches rhs_eval_oracle to 1e-13 relative to the oracle's
    largest entry (exactly where that is 0), at the array ts and at some of
    its times as scalars."""
    want = rhs_eval_oracle(d, loop, ts)
    scale = np.max(np.abs(want))
    got = rhs_eval(d, loop, ts)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    for t in ts[:: max(1, len(ts) // 7)]:
        assert np.max(np.abs(rhs_eval(d, loop, float(t)) - rhs_eval_oracle(d, loop, float(t)))) <= 1e-13 * scale


def _preset_descriptor_and_loop(name, rng):
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    d = generate(cfg.structured_hamiltonian(), cfg.chain)
    n = cfg.aligned_nodes(64)
    a, b = rng.random(cfg.space.dim), 0.2 * rng.standard_normal((2, cfg.space.dim))
    loop = DiscreteCurve.from_function(
        cfg.space, lambda t: a + b[0] * np.sin(2 * np.pi * t) + b[1] * np.cos(4 * np.pi * t), n,
        breakpoints=d.breakpoints(),
    )
    return d, loop


PRESETS = sorted(e.name[:-5] for e in resources.files("hamdelay.presets").iterdir() if e.name.endswith(".json"))


@pytest.mark.parametrize("name", PRESETS)
def test_rhs_matches_per_factor_oracle_on_presets(name):
    rng = np.random.default_rng(11)
    d, loop = _preset_descriptor_and_loop(name, rng)
    _assert_matches_rhs_oracle(d, loop, np.sort(rng.random(97)))
    _assert_matches_rhs_oracle(d, loop, (np.arange(512) + 0.5) / 512)


def test_rhs_matches_per_factor_oracle_on_spline_chain(torus):
    """The non-affine chain of the solver tests, with delayed reads through
    bisection inverses, and a three-factor level-1-product term."""
    from tests.test_solvers import _spline_chain, product_T4

    chain = _spline_chain()
    loop = DiscreteCurve.from_function(
        torus, lambda t: np.hstack([0.3 + 0.1 * np.sin(2 * np.pi * t), 0.6 + 0.1 * np.cos(2 * np.pi * t)]), 64,
        breakpoints=chain.table.breakpoints()[1:-1],
    )
    ts = np.linspace(0.0, 1.0, 41)[:-1]
    _assert_matches_rhs_oracle(generate(product_T4(), chain), loop, ts)


def test_rhs_plan_is_an_explicit_value():
    """rhs_eval through a plan passed in and through the plan it builds is
    bitwise equal; a plan serves any loop, and the descriptor holds no
    per-call state.  Reversed and shifted times, each with its own plan,
    still match the oracle."""
    rng = np.random.default_rng(4)
    d, loop = _preset_descriptor_and_loop("product-T4", rng)
    state = dict(vars(d))
    ts = (np.arange(64) + 0.5) / 64
    plan = rhs_plan(d, ts, loop.space.dim)
    first = rhs_eval(d, loop, ts)
    assert np.array_equal(rhs_eval(d, loop, ts, plan), first)
    other = DiscreteCurve(loop.space, 0, loop.space.normalize(0.9 * loop.samples + 0.05), True, loop.breakpoints)
    assert np.array_equal(rhs_eval(d, other, ts, plan), rhs_eval(d, other, ts))
    assert np.array_equal(rhs_eval(d, loop, ts[::-1].copy()), first[::-1])
    for k in range(4):
        _assert_matches_rhs_oracle(d, loop, ts + 0.001 * (k + 1))
    assert vars(d).keys() == state.keys() and all(vars(d)[k] is v for k, v in state.items())
