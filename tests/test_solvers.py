import json
from fractions import Fraction as Fr
from importlib import resources

import numpy as np
import pytest

from hamdelay.geometry import PhaseSpace, build_level, embed_diagonal_params
from hamdelay.transforms import DiscreteCurve, TransformChain, resample, sup_distance
from hamdelay.hamiltonians import (
    ConstSpatial,
    ConstTime,
    Factor,
    PolySpatial,
    StructuredHamiltonian,
    TrigSpatial,
    TrigTime,
    lift,
)
from hamdelay.cli import ExperimentConfig
from hamdelay.delaygen import generate
from hamdelay.solvers import (
    Chord,
    GridSpec,
    IntegratorConfig,
    NewtonConfig,
    OrbitSet,
    SolveFailure,
    aligned_steps,
    delay_residual,
    enumerate_chords,
    flow_fixed_points,
    integrate,
    pullback_chord,
    shoot_residual,
    solve_chord,
    solve_periodic_delay,
    write_chord_csv,
    write_loop_csv,
    _seed_grid,
    _solve_seeds,
)


def morse_base(eps=0.05):
    return StructuredHamiltonian(
        0,
        (
            (1.0, (Factor(0, TrigSpatial(eps, (1, 0))),)),
            (1.0, (Factor(0, TrigSpatial(eps, (0, 1))),)),
        ),
    )


def product_T4():
    return StructuredHamiltonian(
        1,
        (
            (0.08, (Factor(0, TrigSpatial(0.3, (1, 0)), TrigTime(0.4, 1, 0.0, 1.0)),
                    Factor(1, TrigSpatial(0.3, (0, 1))))),
            (0.06, (Factor(0, TrigSpatial(0.3, (0, 1), 0.9)),
                    Factor(1, TrigSpatial(0.3, (1, 0), 0.9), TrigTime(0.3, 1, 1.1, 1.0)))),
        ),
    )


ZERO_K1 = StructuredHamiltonian(1, ())


def test_integrate_constant_for_zero_k(torus, rng):
    lev = build_level(torus, 1)
    z0 = rng.random((2, 2))
    path = integrate(ZERO_K1, lev, z0, IntegratorConfig(64))
    assert np.allclose(path.samples, path.samples[0])


def test_integrate_harmonic_oscillator_period(plane):
    lev = build_level(plane, 0)
    H = StructuredHamiltonian(0, ((1.0, (Factor(0, PolySpatial(((np.pi, (2, 0)), (np.pi, (0, 2))))),)),))
    path = integrate(H, lev, np.array([[1.0, 0.0]]), IntegratorConfig(2**10))
    assert np.max(np.abs(path.samples[-1] - path.samples[0])) <= 1e-8


def test_integrate_fixed_at_critical_point(torus):
    lev = build_level(torus, 0)
    path = integrate(morse_base(), lev, np.array([[0.0, 0.0]]), IntegratorConfig(256))
    assert np.max(np.abs(path.samples - path.samples[0])) <= 1e-14


def test_rk4_convergence_order(torus, rng):
    """Halving the step shrinks the endpoint error about sixteenfold."""
    lev = build_level(torus, 1)
    K = product_T4()
    z0 = rng.random((2, 2))
    ends = [
        integrate(K, lev, z0, IntegratorConfig(n)).samples[-1] for n in (64, 128, 256)
    ]
    e1 = np.max(np.abs(ends[0] - ends[2]))
    e2 = np.max(np.abs(ends[1] - ends[2]))
    assert e2 < e1 / 10


def test_shoot_residual_zero_k(torus, rng):
    lev = build_level(torus, 1)
    z = rng.random((1, 2))
    r = shoot_residual(ZERO_K1, lev, z, IntegratorConfig(16))
    assert np.allclose(r, 0.0)
    lev2 = build_level(torus, 2)
    params = np.stack([z[0], z[0] + 0.2])[None].reshape(2, 2)
    r2 = shoot_residual(StructuredHamiltonian(2, ()), lev2, params, IntegratorConfig(16))
    # identity flow: residual is the wrapped difference of the end pairs
    emb = embed_diagonal_params(lev2, 0, params)
    for i, (a, b) in enumerate(lev2.matching1):
        assert np.allclose(r2[i], torus.wrapped_difference(emb[a], emb[b]))


def test_shoot_residual_critical_point(torus):
    lev = build_level(torus, 1)
    K = lift(morse_base(), TransformChain.standard(1))
    r = shoot_residual(K, lev, np.array([[0.0, 0.5]]), IntegratorConfig(512))
    assert np.max(np.abs(r)) <= 1e-10


def test_solve_chord_zero_k_converges_at_seed(torus, rng):
    lev = build_level(torus, 1)
    out = solve_chord(ZERO_K1, lev, rng.random(2), integ=IntegratorConfig(16))
    assert isinstance(out, Chord)
    assert out.residual_norm == 0.0
    assert out.degenerate  # zero Jacobian: flagged, not counted


def test_solve_chord_morse(torus):
    lev = build_level(torus, 1)
    K = lift(morse_base(), TransformChain.standard(1))
    out = solve_chord(K, lev, np.array([0.1, 0.05]), integ=IntegratorConfig(512))
    assert isinstance(out, Chord)
    assert out.residual_norm <= 1e-10
    assert np.max(np.abs(torus.wrapped_difference(out.params, np.zeros(2)))) < 1e-8


def test_enumerate_morse_finds_four(torus):
    lev = build_level(torus, 1)
    K = lift(morse_base(), TransformChain.standard(1))
    orbits = enumerate_chords(K, lev, GridSpec(4), integ=IntegratorConfig(256))
    assert orbits.count() == 4
    assert not orbits.degenerate
    for want in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]:
        assert any(
            np.max(np.abs(torus.wrapped_difference(c.params.ravel(), want))) < 1e-8
            for c in orbits.members
        ), want


def test_enumerate_zero_k_degenerate(torus):
    lev = build_level(torus, 1)
    orbits = enumerate_chords(ZERO_K1, lev, GridSpec(3), integ=IntegratorConfig(16))
    assert orbits.degenerate
    assert orbits.count() >= 1


def test_enumerate_deterministic(torus):
    lev = build_level(torus, 1)
    K = product_T4()
    a = enumerate_chords(K, lev, GridSpec(3), integ=IntegratorConfig(128))
    b = enumerate_chords(K, lev, GridSpec(3), integ=IntegratorConfig(128))
    assert a.count() == b.count()
    for ca, cb in zip(a.members, b.members):
        assert np.array_equal(ca.params, cb.params)
        assert np.array_equal(ca.path.samples, cb.path.samples)


def quartic_plane_K():
    """Lifted x^4 + y^4: seeds far from the origin overflow within one RK4 sweep."""
    H = StructuredHamiltonian(0, ((1.0, (Factor(0, PolySpatial(((1.0, (4, 0)), (1.0, (0, 4))))),)),))
    return lift(H, TransformChain.standard(1))


def test_enumerate_tallies_diverging_seeds(plane):
    """Non-finite residuals end as tallied 'diverged' seeds, and the scan
    still returns the chord at the origin from the one finite seed."""
    lev = build_level(plane, 1)
    grid = GridSpec(3, bounds=((-50.0, 50.0), (-50.0, 50.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        orbits = enumerate_chords(quartic_plane_K(), lev, grid, integ=IntegratorConfig(64))
    d = orbits.diagnostics
    assert isinstance(orbits, OrbitSet)
    assert d["failures"]["diverged"] == 8
    assert d["solved"] + sum(d["failures"].values()) == d["seeds"] == 9
    assert orbits.count() == 1 and np.all(orbits.members[0].params == 0.0)


def _preset_problem(name, steps, grid):
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    ham = cfg.structured_hamiltonian()
    return ham, build_level(cfg.space, cfg.chain.level), GridSpec(grid), IntegratorConfig(steps)


# small torus-morse-n1 and sum-n2 instances; Newton capped so stuck level-2 seeds stay cheap
BATCH_CASES = [("torus-morse-n1", 32, 4), ("sum-n2", 8, 2)]
BATCH_NEWTON = NewtonConfig(max_iter=12, min_damping=2.0**-8)


@pytest.mark.parametrize("name,steps,grid", BATCH_CASES)
def test_integrate_batch_matches_rows(name, steps, grid, rng):
    ham, lev, _, integ = _preset_problem(name, steps, grid)
    z0 = rng.random((5, lev.copies, lev.space.dim))
    batch = integrate(ham, lev, z0, integ)
    assert len(batch) == len(z0)
    for row, curve in zip(z0, batch):
        single = integrate(ham, lev, row, integ)
        assert isinstance(single, DiscreteCurve) and not curve.is_loop
        np.testing.assert_allclose(curve.samples, single.samples, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name,steps,grid", BATCH_CASES)
def test_enumerate_paths_match_integrate(name, steps, grid):
    ham, lev, spec, integ = _preset_problem(name, steps, grid)
    orbits = enumerate_chords(ham, lev, spec, BATCH_NEWTON, integ)
    assert orbits.count() >= 1
    for chord in orbits.members:
        single = integrate(ham, lev, embed_diagonal_params(lev, 0, chord.params), integ)
        np.testing.assert_allclose(chord.path.samples, single.samples, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name,steps,grid", BATCH_CASES)
def test_solve_chord_matches_enumerate_rows(name, steps, grid):
    """solve_chord from each grid seed is the one-seed case of the batched
    solve that enumerate_chords runs, seed by seed."""
    ham, lev, spec, integ = _preset_problem(name, steps, grid)
    seeds = _seed_grid(lev, spec)
    rows = _solve_seeds(ham, lev, seeds, BATCH_NEWTON, integ)
    singles = [solve_chord(ham, lev, seed, BATCH_NEWTON, integ) for seed in seeds]
    for row, single in zip(rows, singles):
        assert type(row) is type(single)
        if isinstance(single, SolveFailure):
            assert row.reason == single.reason
            continue
        np.testing.assert_allclose(row.params, single.params, rtol=0, atol=1e-13)
        np.testing.assert_allclose(row.residual_norm, single.residual_norm, rtol=0, atol=1e-13)
        np.testing.assert_allclose(row.path.samples, single.path.samples, rtol=0, atol=1e-13)
    orbits = enumerate_chords(ham, lev, spec, BATCH_NEWTON, integ)
    solved = [s for s in singles if isinstance(s, Chord)]
    assert solved and orbits.diagnostics["solved"] == len(solved)
    for reason, n in orbits.diagnostics["failures"].items():
        assert n == sum(isinstance(s, SolveFailure) and s.reason == reason for s in singles)
    for chord in orbits.members:
        assert any(np.array_equal(chord.params, s.params) for s in solved)


def test_plane_enumeration_needs_bounds(plane):
    lev = build_level(plane, 1)
    with pytest.raises(ValueError):
        enumerate_chords(StructuredHamiltonian(1, ()), lev, GridSpec(2), integ=IntegratorConfig(8))


def test_pullback_constant_chord(torus):
    lev = build_level(torus, 1)
    z = np.array([0.25, 0.75])
    samples = np.tile(z, (33, 2, 1))
    chord = Chord(z[None], DiscreteCurve(torus, 1, samples, False), 0.0, 1.0)
    loop = pullback_chord(chord, TransformChain.standard(1))
    assert np.allclose(loop.samples, z)
    assert loop.is_loop


def test_pullback_of_lifted_chord_solves_base_ode(torus):
    """Loops pulled back from lifted chords follow the base flow."""
    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    H = morse_base()
    K = lift(H, chain)
    out = solve_chord(K, lev, np.array([0.3, 0.2]), integ=IntegratorConfig(1024))
    assert isinstance(out, Chord)
    loop = pullback_chord(out, chain)
    lev0 = build_level(torus, 0)
    base_orbit = integrate(H, lev0, loop.samples[0], IntegratorConfig(1024))
    assert sup_distance(loop, DiscreteCurve(torus, 0, base_orbit.samples, True, loop.breakpoints)) < 1e-6


def test_delay_residual_zero_descriptor(torus):
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    loop = DiscreteCurve.from_function(torus, lambda t: np.array([0.4, 0.1]), 64, breakpoints=d.breakpoints())
    # zero up to the difference-stencil roundoff floor
    assert delay_residual(d, loop) <= 1e-12


def test_delay_residual_flags_perturbation(torus):
    """A small bump off the solution raises the residual proportionally."""
    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    K = product_T4()
    d = generate(K, chain)
    out = solve_chord(K, lev, np.array([0.2, 0.2]), integ=IntegratorConfig(2**11))
    loop = pullback_chord(out, chain)
    base = delay_residual(d, loop)
    bumped = loop.samples.copy()
    ts = loop.times()
    bumped[:, 0, 0] += 1e-3 * np.sin(2 * np.pi * ts) ** 2
    loop2 = DiscreteCurve(torus, 0, bumped, True, loop.breakpoints)
    assert delay_residual(d, loop2) > max(10 * base, 1e-3)


def test_two_route_cross_validation(torus):
    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    K = product_T4()
    d = generate(K, chain)
    out = solve_chord(K, lev, np.array([0.2, 0.2]), integ=IntegratorConfig(2**11))
    assert isinstance(out, Chord)
    loop = pullback_chord(out, chain)
    assert delay_residual(d, loop) < 1e-4
    seed = resample(loop, 256)
    sol = solve_periodic_delay(d, seed, NewtonConfig(tol=1e-9))
    assert isinstance(sol, DiscreteCurve)
    assert sup_distance(sol, seed) <= 1e-4


def test_transverse_product_count_bound(torus):
    """A transverse instance on the doubled torus meets the Betti bound."""
    lev = build_level(torus, 1)
    orbits = enumerate_chords(product_T4(), lev, GridSpec(4), integ=IntegratorConfig(2**9))
    assert not orbits.degenerate
    assert orbits.count() >= 4


def test_two_route_reverse_seeding(torus):
    """Route 2 first, then lift the orbit and shoot for its chord."""
    from hamdelay.geometry import reduce_diagonal_params
    from hamdelay.transforms import psi_chain

    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    K = product_T4()
    d = generate(K, chain)
    chord = solve_chord(K, lev, np.array([0.2, 0.2]), integ=IntegratorConfig(2**10))
    seed_loop = resample(pullback_chord(chord, chain), 256)
    # perturb, then let the periodic solver find the orbit independently
    noisy = seed_loop.samples.copy()
    noisy[:, 0, 0] += 2e-3 * np.sin(2 * np.pi * seed_loop.times())
    noisy[-1] = noisy[0]
    orbit = solve_periodic_delay(
        d, DiscreteCurve(torus, 0, torus.normalize(noisy), True, seed_loop.breakpoints),
        NewtonConfig(tol=1e-9),
    )
    assert isinstance(orbit, DiscreteCurve)
    lifted = psi_chain(chain, orbit)
    params = reduce_diagonal_params(lev, 0, lifted.samples[0], tol=1e-6)
    chord2 = solve_chord(K, lev, params, integ=IntegratorConfig(2**10))
    assert isinstance(chord2, Chord)
    back = resample(pullback_chord(chord2, chain), orbit.n_intervals)
    assert sup_distance(back, orbit) <= 1e-4


def test_zero_k_level2_singular_jacobian(torus):
    """Asymmetric seeds of the trivial level-2 problem hit the flagged rank
    deficiency; symmetric seeds converge on the spot."""
    lev = build_level(torus, 2)
    K = StructuredHamiltonian(2, ())
    out = solve_chord(K, lev, np.array([[0.1, 0.2], [0.6, 0.9]]), integ=IntegratorConfig(8))
    assert isinstance(out, SolveFailure) and out.reason == "singular-jacobian"
    sym = solve_chord(K, lev, np.array([[0.1, 0.2], [0.1, 0.2]]), integ=IntegratorConfig(8))
    assert isinstance(sym, Chord) and sym.residual_norm == 0.0


def test_plane_enumeration_oscillator(plane):
    """Off-resonance oscillator: the origin is the only 1-periodic orbit."""
    lev = build_level(plane, 1)
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, PolySpatial(((0.3 * np.pi, (2, 0)), (0.3 * np.pi, (0, 2))))),)),),
    )
    K = lift(H, TransformChain.standard(1))
    orbits = enumerate_chords(
        K, lev, GridSpec(3, bounds=((-0.8, 0.8), (-0.8, 0.8))), integ=IntegratorConfig(512)
    )
    assert orbits.count() == 1
    assert not orbits.degenerate
    assert np.max(np.abs(orbits.members[0].params)) < 1e-8


def staggered_product_n2():
    """Paired products whose term fields never vanish simultaneously on the
    total diagonal, so every chord genuinely moves."""
    return StructuredHamiltonian(
        2,
        (
            (0.07, (Factor(0, TrigSpatial(0.3, (1, 0))), Factor(3, TrigSpatial(0.3, (0, 1))))),
            (0.05, (Factor(1, TrigSpatial(0.3, (0, 1), 0.9)), Factor(2, TrigSpatial(0.3, (1, 0), 0.9)))),
        ),
    )


def test_level2_two_route_pipeline(torus):
    """Full pipeline at level 2: four delays of 1/2, both solution routes."""
    lev = build_level(torus, 2)
    chain = TransformChain.standard(2)
    K = staggered_product_n2()
    d = generate(K, chain)
    out = solve_chord(K, lev, np.array([[0.2, 0.2], [0.7, 0.4]]), integ=IntegratorConfig(2**10))
    assert isinstance(out, Chord)
    assert out.residual_norm <= 1e-10
    loop = pullback_chord(out, chain)
    wiggle = np.max(np.abs(torus.wrapped_difference(loop.samples, loop.samples[0:1])))
    assert wiggle > 1e-4  # genuinely non-constant orbit
    assert delay_residual(d, loop) <= 1e-4
    seed = resample(loop, 256)
    sol = solve_periodic_delay(d, seed, NewtonConfig(tol=1e-9))
    assert isinstance(sol, DiscreteCurve)
    assert sup_distance(sol, seed) <= 1e-4


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_compiler_correctness_random_instances(torus, seed):
    """Random product Hamiltonians: chord pullbacks satisfy the compiled
    equation at discretization accuracy."""
    rng = np.random.default_rng(seed)
    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    def nonzero_freq():
        while True:
            f = tuple(int(v) for v in rng.integers(-1, 2, 2))
            if any(f):
                return f

    terms = []
    for _ in range(2):
        f0 = Factor(0, TrigSpatial(0.3 * rng.random() + 0.05, nonzero_freq(),
                                   float(2 * np.pi * rng.random())))
        f1 = Factor(1, TrigSpatial(0.3 * rng.random() + 0.05, nonzero_freq(),
                                   float(2 * np.pi * rng.random())),
                    TrigTime(0.3 * rng.random(), 1, float(rng.random()), 1.0))
        terms.append((0.1 * rng.random() + 0.02, (f0, f1)))
    K = StructuredHamiltonian(1, tuple(terms))
    d = generate(K, chain)
    out = solve_chord(K, lev, rng.random(2), integ=IntegratorConfig(2**10))
    if isinstance(out, SolveFailure):
        pytest.skip(f"seed landed outside a basin: {out.reason}")
    loop = pullback_chord(out, chain)
    assert delay_residual(d, loop) <= 1e-3


def test_delay_residual_step_convergence(torus):
    """The residual of a genuine pullback shrinks with the step."""
    lev = build_level(torus, 1)
    chain = TransformChain.standard(1)
    K = product_T4()
    d = generate(K, chain)
    residuals = []
    for steps in (2**9, 2**11):
        out = solve_chord(K, lev, np.array([0.2, 0.2]), integ=IntegratorConfig(steps))
        residuals.append(delay_residual(d, pullback_chord(out, chain)))
    assert residuals[1] < residuals[0] / 4


def test_half_dim_two_pipeline():
    """Four-dimensional base torus: coordinate bookkeeping at d = 2."""
    space = PhaseSpace(2, "torus")
    lev = build_level(space, 1)
    chain = TransformChain.standard(1)
    H = StructuredHamiltonian(
        0,
        tuple(
            (1.0, (Factor(0, TrigSpatial(0.05, tuple(int(i == j) for i in range(4)))),))
            for j in range(4)
        ),
    )
    K = lift(H, chain)
    out = solve_chord(K, lev, np.array([[0.03, 0.02, 0.04, 0.01]]), integ=IntegratorConfig(2**9))
    assert isinstance(out, Chord)
    assert out.residual_norm <= 1e-10
    # converged to the critical point at the origin, pullback constant there
    assert np.max(np.abs(space.wrapped_difference(out.params, 0.0))) < 1e-8
    loop = pullback_chord(out, chain)
    assert np.max(np.abs(space.wrapped_difference(loop.samples, 0.0))) < 1e-8


def test_level3_lifted_pipeline(torus):
    """Shooting, pullback, and the compiled equation at the 8-copy level."""
    chain = TransformChain.standard(3)
    lev = build_level(torus, 3)
    K = lift(morse_base(), chain)
    d = generate(K, chain)
    assert len(d.segments) == 8
    seed = np.full((4, 2), 0.0)
    seed[:, 0] = (0.02, 0.03, 0.01, 0.04)
    out = solve_chord(K, lev, seed, integ=IntegratorConfig(2**9))
    assert isinstance(out, Chord)
    assert out.residual_norm <= 1e-10
    loop = pullback_chord(out, chain)
    assert np.max(np.abs(torus.wrapped_difference(loop.samples, 0.0))) < 1e-6
    assert delay_residual(d, loop) < 1e-8


def test_spline_chain_pipeline(torus):
    """Tabulated smooth reparametrizations run the whole pipeline numerically."""
    from hamdelay.transforms import MonotoneSplineMap, ReparamPair

    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)  # alpha(1) = 1/2
    beta = MonotoneSplineMap(xs, 1.0 - 0.35 * xs - 0.15 * xs**2)  # beta(1) = 1/2
    chain = TransformChain((ReparamPair(alpha, beta, 0.5),))
    K = product_T4()
    d = generate(K, chain)
    lev = build_level(torus, 1)
    chord = solve_chord(K, lev, np.array([0.2, 0.2]), integ=IntegratorConfig(2**10))
    assert isinstance(chord, Chord)
    loop = pullback_chord(chord, chain)
    assert delay_residual(d, loop) < 1e-3
    # transform round trip at spline accuracy
    from hamdelay.transforms import phi_chain, psi_chain

    back = phi_chain(chain, psi_chain(chain, loop))
    assert sup_distance(back, loop) < 1e-5


def test_periodic_solver_zero_descriptor(torus):
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    seed = DiscreteCurve.from_function(torus, lambda t: np.array([0.3, 0.9]), 32, breakpoints=d.breakpoints())
    sol = solve_periodic_delay(d, seed)
    assert isinstance(sol, DiscreteCurve)
    assert sup_distance(sol, seed) == 0.0


def test_periodic_solver_grid_misaligned(torus):
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    seed = DiscreteCurve.from_function(torus, lambda t: np.array([0.3, 0.9]), 31)
    out = solve_periodic_delay(d, seed)
    assert isinstance(out, SolveFailure) and out.reason == "grid-misaligned"


def test_periodic_solver_at_critical_point(torus):
    chain = TransformChain.standard(1)
    d = generate(lift(morse_base(), chain), chain)
    seed = DiscreteCurve.from_function(
        torus, lambda t: np.array([0.001, 0.499]), 64, breakpoints=d.breakpoints()
    )
    sol = solve_periodic_delay(d, seed, NewtonConfig(tol=1e-11))
    assert isinstance(sol, DiscreteCurve)
    assert np.max(np.abs(torus.wrapped_difference(sol.samples, np.array([0.0, 0.5])))) < 1e-6


def test_flow_fixed_points_morse(torus):
    orbits = flow_fixed_points(morse_base(), torus, grid_n=32, integ=IntegratorConfig(256))
    assert orbits.count() == 4
    expected = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    for want in expected:
        assert any(
            np.max(np.abs(torus.wrapped_difference(fp.point, want))) < 1e-8
            for fp in orbits.members
        ), want
    assert not orbits.degenerate


def test_flow_fixed_points_zero_h_degenerate(torus):
    orbits = flow_fixed_points(StructuredHamiltonian(0, ()), torus, grid_n=8, integ=IntegratorConfig(8))
    assert orbits.degenerate


def test_aligned_steps():
    assert aligned_steps(1000, 8) == 1000
    assert aligned_steps(1000, 9) == 1008
    assert aligned_steps(9, 9) == 9


def test_csv_writers(tmp_path, torus):
    lev = build_level(torus, 1)
    z = np.array([0.25, 0.75])
    samples = np.tile(z, (5, 2, 1))
    chord = Chord(z[None], DiscreteCurve(torus, 1, samples, False), 0.0, 1.0)
    write_chord_csv(tmp_path / "c.csv", chord)
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,copy,coord_index,value"
    assert len(lines) == 1 + 5 * 2 * 2
    loop = DiscreteCurve(torus, 0, samples[:, :1, :], True)
    write_loop_csv(tmp_path / "l.csv", loop)
    lines = (tmp_path / "l.csv").read_text().splitlines()
    assert lines[0] == "t,coord_index,value"
    assert len(lines) == 1 + 5 * 2


def test_orbitset_summary_json(torus):
    lev = build_level(torus, 1)
    K = lift(morse_base(), TransformChain.standard(1))
    orbits = enumerate_chords(K, lev, GridSpec(2), integ=IntegratorConfig(128))
    summary = orbits.summary()
    assert {"count", "degenerate", "seeds", "failures"} <= set(summary)
    import json

    assert json.loads(orbits.to_json())["count"] == summary["count"]
