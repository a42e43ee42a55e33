import csv
import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.linalg import splu

from hamdelay.geometry import PhaseSpace, build_level, embed_diagonal_params
from hamdelay.transforms import DiscreteCurve, TransformChain, phi_chain, resample, sup_distance
from hamdelay.hamiltonians import (
    ConstSpatial,
    ConstTime,
    Factor,
    PolySpatial,
    StructuredHamiltonian,
    TrigSpatial,
    TrigTime,
    lift,
    vector_field,
)
from hamdelay import solvers
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
    integrate,
    pullback_chord,
    shoot_residual,
    solve_chord,
    solve_periodic_delay,
    write_chord_csv,
    write_loop_csv,
    _PeriodicCollocation,
    _SlicedShooting,
    _SquareSystem,
    _end_residual,
    _newton_batch,
    _one_sided_derivatives,
    _seed_grid,
    _slice_count,
    _solve_seeds,
    _solve_stack,
)
from tests.oracles import check_boundary, flow_fixed_points, phi_chain_oracle
from tests.test_hamiltonians import _hamiltonians, wide_and_empty_copies


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


def _rk4_oracle(ham, level, z0, n_steps, path=None, start=0, steps=None):
    """The stage-per-call RK4 sweep: one vector_field call per stage over
    the whole batch, the state rows-first, (rows, copies, dim), at a float
    time or, from per-row start steps, at per-row times."""
    h = 1.0 / n_steps
    z = np.array(z0, dtype=float)
    if path is not None:
        keep = path.shape[1]
        path[0] = z[:keep]

    def field(z, t):
        return solvers.vector_field(ham, level, z, t)

    for i in range(n_steps if steps is None else steps):
        t = (start + i) * h
        k1 = field(z, t)
        k2 = field(z + 0.5 * h * k1, t + 0.5 * h)
        k3 = field(z + 0.5 * h * k2, t + 0.5 * h)
        k4 = field(z + h * k3, t + h)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if path is not None:
            path[i + 1] = z[:keep]
    return z


def _assert_rk4_matches_oracle(ham, lev, z0, n_steps, keep, start=0, steps=None):
    """End states and the kept paths of _rk4 and _rk4_oracle agree bitwise."""
    length = (n_steps if steps is None else steps) + 1
    paths = [np.full((length, keep) + z0.shape[1:], np.nan) for _ in range(2)]
    got = solvers._rk4(solvers._stage(ham, lev), z0, n_steps, paths[0], start, steps)
    want = _rk4_oracle(ham, lev, z0, n_steps, paths[1], start, steps)
    assert got.tobytes() == want.tobytes()
    assert paths[0].tobytes() == paths[1].tobytes()


PRESETS = sorted(f.name[: -len(".json")] for f in resources.files("hamdelay.presets").iterdir() if f.name.endswith(".json"))


@pytest.mark.parametrize("name", PRESETS)
def test_rk4_sweep_matches_stage_per_call_oracle(name, rng):
    """The batch-last sweep gives bitwise the end states and kept paths of
    one vector_field call per stage, for every packaged Hamiltonian: at
    float times over the whole grid, and from per-row start steps (a sliced
    sweep), keeping fewer rows than it sweeps, and for one row alone."""
    ham, lev, _, _ = _preset_problem(name, 16, 1)
    z0 = rng.random((7, lev.copies, lev.space.dim))
    _assert_rk4_matches_oracle(ham, lev, z0, 16, 7)
    _assert_rk4_matches_oracle(ham, lev, z0[:1], 16, 1)
    _assert_rk4_matches_oracle(ham, lev, z0, 16, 3, rng.integers(0, 13, len(z0)), 4)


@pytest.mark.parametrize("name", ["sum-n2", "product-T4"])
def test_rk4_sweep_wider_than_a_block_matches_oracle(name, rng):
    """A sweep of 2304 rows runs in three row blocks of the compiled
    program, and its ends and kept paths, also from per-row start steps and
    for a path that keeps rows of two blocks only, are bitwise the oracle's.
    (The product-T4 field depends on the time, so a block that read
    another block's start steps would show.)"""
    ham, lev, _, _ = _preset_problem(name, 8, 1)
    block = ham._program(lev.space.dim).block
    assert 2 * block < 2304 < 3 * block
    z0 = rng.random((2304, lev.copies, lev.space.dim))
    _assert_rk4_matches_oracle(ham, lev, z0, 8, 2304)
    _assert_rk4_matches_oracle(ham, lev, z0, 8, block + 5, rng.integers(0, 6, len(z0)), 2)


@pytest.mark.parametrize("name", PRESETS)
def test_rk4_sweep_across_tables_matches_oracle(name, rng, monkeypatch):
    """With a table bound of 7 stage times, two steps per table from one
    start step and one from several, the sweeps of the two tests above
    cross table boundaries and stay bitwise the oracle's."""
    monkeypatch.setattr(solvers, "TABLE_SIZE", 7)
    test_rk4_sweep_matches_stage_per_call_oracle(name, rng)
    if name in ("sum-n2", "product-T4"):
        test_rk4_sweep_wider_than_a_block_matches_oracle(name, rng)


def test_rk4_sweep_tables(rng, monkeypatch):
    """An n-step sweep makes ceil(3n / TABLE_SIZE) table calls, one per
    chunk of its stage times.  The program keeps the last table it built:
    a repeated sweep of one table makes none, from other start points too,
    and a sweep at other stage times makes its own."""
    ham, lev, _, _ = _preset_problem("product-T4", 16, 1)
    prog = ham._program(lev.space.dim)
    calls = []
    real = prog.table
    monkeypatch.setattr(prog, "table", lambda times: calls.append(len(times)) or real(times))
    z0 = rng.random((5, lev.copies, lev.space.dim))
    stage = solvers._stage(ham, lev)
    monkeypatch.setattr(solvers, "TABLE_SIZE", 12)
    solvers._rk4(stage, z0, 16)
    assert calls == [12] * 4  # ceil(3 * 16 / 12)
    monkeypatch.setattr(solvers, "TABLE_SIZE", 2**14)
    calls.clear()
    end = solvers._rk4(stage, z0, 16)
    assert calls == [48]
    assert solvers._rk4(stage, z0, 16).tobytes() == end.tobytes()
    solvers._rk4(stage, rng.random(z0.shape), 16)
    assert calls == [48]
    solvers._rk4(stage, z0, 16, None, np.array([0, 4, 4, 8, 0]), 4)
    assert calls == [48, 36]


@given(st.one_of(_hamiltonians(), st.builds(wide_and_empty_copies)), st.integers(0, 2**32 - 1))
def test_rk4_sweep_matches_oracle_on_drawn_programs(ham, seed):
    """Drawn programs, and the level-2 one with a wide and an empty copy,
    swept over batches of 1, 7 and block + 5 rows (two row blocks), each
    holding a +-inf and a NaN coordinate: end states and kept paths are
    bitwise the stage-per-call oracle's, at float times over the whole grid
    and from per-row start steps, NaN where it has NaN.  A kernel bound to
    one row count must not make a row depend on its batch.  (Which NaN a
    numpy loop returns for two NaN operands depends on where the element
    falls, vector body or scalar tail, so NaN sign and payload follow the
    layout, which the batch-last sweep and the rows-first oracle do not
    share.)"""
    lev = build_level(PhaseSpace(1, "torus"), ham.level)
    rng = np.random.default_rng(seed)
    for rows in (1, 7, ham._program(2).block + 5):
        z0 = rng.uniform(-1.0, 1.0, (rows, lev.copies, 2))
        z0[rng.integers(rows), rng.integers(lev.copies), 0] = rng.choice([np.inf, -np.inf])
        z0[rng.integers(rows), rng.integers(lev.copies), 1] = np.nan
        for start, steps in ((0, None), (rng.integers(0, 4, rows), 2)):
            keep = min(rows, 3)
            paths = [np.empty((5 if steps is None else 3, keep, lev.copies, 2)) for _ in range(2)]
            with np.errstate(invalid="ignore", over="ignore"):
                got = solvers._rk4(solvers._stage(ham, lev), z0, 4, paths[0], start, steps)
                want = _rk4_oracle(ham, lev, z0, 4, paths[1], start, steps)
            for a, b in ((got, want), *zip(*paths)):
                assert np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def test_rk4_sweep_crossing_the_trim_limit_matches_oracle(plane):
    """The trimmed or full derivative table is chosen per stage call, not
    when a sweep binds its stages.  x^2 + a y has the limit 2^511: rows
    that start below it and run out along x (x' = a) cross it partway
    through the sweep, and past 2^512 the dropped 0 * x^2 of d/dy is NaN.
    End states and kept paths are the stage-per-call oracle's, NaN compared
    as NaN, at one row and at 5 rows of one block."""
    rate = 2e154
    ham = StructuredHamiltonian(0, ((1.0, (Factor(0, PolySpatial(((1.0, (2, 0)), (rate, (0, 1))))),)),))
    lev = build_level(plane, 0)
    limit = ham._program(2).trim_limit
    assert limit == 2.0**511
    z0 = np.array([[1e153, 0.0], [5e152, 0.1], [-1e153, 0.0], [0.3, -0.2], [2e153, 0.5]])[:, None, :]
    for rows in (1, 5):
        z = z0[:rows]
        assert np.vdot(z, z) < limit * limit
        paths = [np.empty((9, rows, 1, 2)) for _ in range(2)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = solvers._rk4(solvers._stage(ham, lev), z, 8, paths[0])
            want = _rk4_oracle(ham, lev, z, 8, paths[1])
            squares = np.sum(paths[1] ** 2, axis=(1, 2, 3))
        for a, b in ((got, want), *zip(*paths)):
            assert np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()
        # the sweep crossed the limit with finite rows, and went NaN later
        assert (np.isfinite(squares) & (squares >= limit * limit)).any()
        assert np.isnan(want).any()


@pytest.mark.parametrize("name", PRESETS)
def test_sweeps_of_other_row_counts_match_a_fresh_program(name, rng):
    """Sweeps and field calls of 80, 20 and then 80 rows on one program are
    each bitwise what a fresh program gives: no scratch array of a kernel
    bound to one row count carries over to the next."""
    ham, lev, _, _ = _preset_problem(name, 16, 1)
    stage = solvers._stage(ham, lev)
    for rows in (80, 20, 80):
        z0 = rng.random((rows, lev.copies, lev.space.dim))
        fresh = _preset_problem(name, 16, 1)[0]
        paths = [np.empty((17, 3) + z0.shape[1:]) for _ in range(2)]
        end = solvers._rk4(stage, z0, 16, paths[0])
        assert end.tobytes() == solvers._rk4(solvers._stage(fresh, lev), z0, 16, paths[1]).tobytes()
        assert paths[0].tobytes() == paths[1].tobytes()
        assert vector_field(ham, lev, z0, 0.3).tobytes() == vector_field(fresh, lev, z0, 0.3).tobytes()


def test_swept_hamiltonian_and_its_curves_are_freed_without_the_cyclic_collector(torus, rng):
    """A Hamiltonian whose program holds bound kernels, and an integrated
    curve that holds its interpolant, are freed as soon as the last
    reference goes: no reference cycle keeps their arrays until the cyclic
    collector runs, which would raise a long run's peak memory."""
    import gc
    import weakref

    lev = build_level(torus, 1)
    gc.collect()
    gc.disable()
    try:
        ham = product_T4()
        curve = integrate(ham, lev, rng.random((lev.copies, 2)), IntegratorConfig(16))
        vector_field(ham, lev, rng.random((5, lev.copies, 2)), 0.3)
        curve.interpolant().evaluate(np.array([0.25]))
        refs = weakref.ref(ham), weakref.ref(ham._program(2)), weakref.ref(curve)
        del ham, curve
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


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


@pytest.mark.parametrize(
    "name",
    ["torus-morse-n1", "product-T4", "plane-oscillator", "product-1423", "sum-n2", "rr-chain-13", "product-n3-full", "zero-K"],
)
@pytest.mark.parametrize("points", [None, 1, 3])
def test_seed_grid_matches_meshgrid_oracle(name, points):
    """The digit-built seed grid is the meshgrid one, row for row and bit
    for bit, at the preset's grid and at 1 and 3 points per parameter."""
    from tests.oracles import seed_grid

    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{name}.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    lev = build_level(cfg.space, cfg.chain.level)
    spec = cfg.grid if points is None else GridSpec(points, cfg.grid.bounds)
    got = _seed_grid(lev, spec)
    assert got.shape == (spec.points_per_dim ** solvers._flat_dim(lev), solvers._flat_dim(lev))
    assert np.array_equal(got, seed_grid(lev, spec))


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
        assert np.array_equal(chord.path.samples, single.samples)


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
        assert np.array_equal(row.params, single.params)
        assert row.residual_norm == single.residual_norm
        assert np.array_equal(row.path.samples, single.path.samples)
    orbits = enumerate_chords(ham, lev, spec, BATCH_NEWTON, integ)
    solved = [s for s in singles if isinstance(s, Chord)]
    assert solved and orbits.diagnostics["solved"] == len(solved)
    for reason, n in orbits.diagnostics["failures"].items():
        assert n == sum(isinstance(s, SolveFailure) and s.reason == reason for s in singles)
    for chord in orbits.members:
        assert any(np.array_equal(chord.params, s.params) for s in solved)


def test_rung_converged_seeds_take_paths_from_integrate(monkeypatch):
    """With the loose tolerance 0.1, some sum-n2 seeds take their final step
    from a damping rung (the oracle's record of step lengths says which):
    exactly they ride one integrate sweep, the others keep the trajectories
    of their Newton sweeps, and every path is bitwise the one integrate
    gives from the chord's parameters."""
    newton = NewtonConfig(max_iter=12, tol=0.1)
    ham, lev, spec, integ = _preset_problem("sum-n2", 8, 2)
    seeds = _seed_grid(lev, spec)
    shape = (2 ** (lev.level - 1), lev.space.dim)

    def resid(flat):
        return shoot_residual(ham, lev, flat.reshape(len(flat), *shape), integ).reshape(len(flat), -1)

    final_lam = np.ones(len(seeds))
    status = _newton_sequential(resid, partial(solvers._wrap_params, lev.space), seeds, newton, final_lam)[2]
    on_rung = np.count_nonzero((status == solvers._CONVERGED) & (final_lam < 1))
    rows = []

    def counted(ham, level, z0, cfg):
        rows.append(len(z0))
        return integrate(ham, level, z0, cfg)

    monkeypatch.setattr(solvers, "integrate", counted)
    chords = [c for c in _solve_seeds(ham, lev, seeds, newton, integ) if isinstance(c, Chord)]
    assert 0 < on_rung < len(chords) and rows == [on_rung]
    for chord in chords:
        single = integrate(ham, lev, embed_diagonal_params(lev, 0, chord.params), integ)
        assert np.array_equal(chord.path.samples, single.samples)


def test_flow_fixed_point_loops_match_integrate(torus, monkeypatch):
    monkeypatch.setattr(solvers, "integrate", None)  # every loop comes from a Newton sweep
    integ = IntegratorConfig(256)
    orbits = flow_fixed_points(morse_base(), torus, grid_n=32, integ=integ)
    assert orbits.count() == 4
    for fp in orbits.members:
        single = integrate(morse_base(), build_level(torus, 0), fp.point[None], integ)
        assert fp.loop.is_loop and np.array_equal(fp.loop.samples, single.samples)


@pytest.mark.parametrize("name,steps,grid", BATCH_CASES)
def test_enumerate_dedup_matches_pairwise_distances(name, steps, grid):
    """The kept chords, their order and min_separation are those of the
    candidate-by-candidate PhaseSpace.distance loop."""
    ham, lev, spec, integ = _preset_problem(name, steps, grid)
    chords = [c for c in _solve_seeds(ham, lev, _seed_grid(lev, spec), BATCH_NEWTON, integ) if isinstance(c, Chord)]
    chords.sort(key=lambda c: tuple(np.round(c.params.ravel() / solvers.DEDUP_TOL)) + tuple(c.params.ravel()))
    dist = lev.space.distance
    kept = []
    for c in chords:
        if all(dist(c.path.samples, k.path.samples) > solvers.DEDUP_TOL for k in kept):
            kept.append(c)
    seps = [dist(a.path.samples, b.path.samples) for i, a in enumerate(kept) for b in kept[i + 1 :]]
    orbits = enumerate_chords(ham, lev, spec, BATCH_NEWTON, integ)
    assert len(kept) >= 2 and orbits.count() == len(kept)
    for a, b in zip(orbits.members, kept):
        assert np.array_equal(a.params, b.params)
    assert orbits.diagnostics["min_separation"] == min(seps)


def _newton_sequential(resid_fn, wrap_fn, seeds, newton, final_lam=None):
    """Oracle for _newton_batch: the damped Newton loop that halves the step
    one residual sweep at a time, after a separate Jacobian sweep.  Given an
    array final_lam of ones, one per seed, it records there the step length
    of each seed's last accepted iterate."""

    def fd_jacobians(p, h):
        nb, dim = p.shape
        eye = np.eye(dim)
        probes = np.concatenate([p[:, None, :] + h * eye, p[:, None, :] - h * eye], axis=1)
        rr = resid_fn(probes.reshape(-1, dim)).reshape(nb, 2 * dim, dim)
        return (rr[:, :dim, :] - rr[:, dim:, :]).transpose(0, 2, 1) / (2 * h)

    RUNNING, CONVERGED, SINGULAR, STUCK, DIVERGED = 0, 1, 2, 3, 4
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array(seeds, dtype=float)
        r = resid_fn(p)
        status = np.full(len(p), RUNNING, dtype=int)
        conds = np.full(len(p), np.nan)
        status[np.max(np.abs(r), axis=1) <= newton.tol] = CONVERGED
        status[~np.all(np.isfinite(r), axis=1)] = DIVERGED
        for _ in range(newton.max_iter):
            active = np.flatnonzero(status == RUNNING)
            if len(active) == 0:
                break
            jac = fd_jacobians(p[active], solvers.FD_STEP)
            finite = np.all(np.isfinite(jac), axis=(1, 2))
            status[active[~finite]] = DIVERGED
            active, jac = active[finite], jac[finite]
            conds[active] = np.linalg.cond(jac)
            solvable = np.isfinite(conds[active]) & (conds[active] <= solvers.COND_LIMIT)
            status[active[~solvable]] = SINGULAR
            active, jac = active[solvable], jac[solvable]
            step_rows, solved = _solve_stack(jac, r[active])
            status[active[~solved]] = SINGULAR
            active, step_rows = active[solved], step_rows[solved]
            if len(active) == 0:
                break
            lam = np.ones(len(active))
            accepted = np.zeros(len(active), dtype=bool)
            base_norm = np.linalg.norm(r[active], axis=1)
            while not np.all(accepted) and np.min(lam[~accepted]) >= newton.min_damping:
                trial_idx = np.flatnonzero(~accepted)
                trials = wrap_fn(p[active[trial_idx]] - lam[trial_idx, None] * step_rows[trial_idx])
                r_try = resid_fn(trials)
                better = np.linalg.norm(r_try, axis=1) < base_norm[trial_idx]
                took = active[trial_idx[better]]
                p[took], r[took] = trials[better], r_try[better]
                if final_lam is not None:
                    final_lam[took] = lam[trial_idx[better]]
                accepted[trial_idx[better]] = True
                lam[trial_idx[~better]] *= 0.5
            status[active[~accepted]] = STUCK
            done = np.max(np.abs(r), axis=1) <= newton.tol
            status[(status == RUNNING) & done] = CONVERGED
        status[status == RUNNING] = STUCK
        fresh = np.flatnonzero((status == CONVERGED) & ~np.isfinite(conds))
        if len(fresh):
            jac = fd_jacobians(p[fresh], solvers.FD_STEP)
            finite = np.all(np.isfinite(jac), axis=(1, 2))
            conds[fresh[finite]] = np.linalg.cond(jac[finite])
        return p, r, status, conds


@pytest.fixture
def newton_against_oracle(monkeypatch):
    """Runs every _newton_batch call of the solvers next to the sequential
    oracle, asserts bitwise-equal p, r, status and conds, and records per
    call the statuses and the residual sweeps each took."""
    runs = []

    def both(system, seeds, newton):
        sweeps = {"ladder": 0, "oracle": 0}

        def counted(key):
            def fn(x, path=None):
                sweeps[key] += 1
                return system.resid(x, path)

            return fn

        got = _newton_batch(_SquareSystem(counted("ladder"), system.space, system.row_path), seeds, newton)
        want = _newton_sequential(counted("oracle"), partial(solvers._wrap_params, system.space), seeds, newton)
        for a, b in zip(got[:4], want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        runs.append({"status": got[2], **sweeps})
        return got

    monkeypatch.setattr(solvers, "_newton_batch", both)
    return runs


# (preset, steps, grid, Newton settings) for the ladder-against-oracle scans;
# min_damping 2^-45 gives 45 rungs, so the ladder runs past its first block
# and some seeds take a rung below 2^-20
ORACLE_CASES = {
    "torus-morse-n1": ("torus-morse-n1", 32, 4, NewtonConfig()),
    "sum-n2": ("sum-n2", 8, 2, BATCH_NEWTON),
    "rr-chain-13": ("rr-chain-13", 9, 2, BATCH_NEWTON),
    "sum-n2-deep-ladder": ("sum-n2", 8, 2, NewtonConfig(max_iter=12, min_damping=2.0**-45)),
}


@pytest.mark.parametrize("name,steps,grid,newton", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_newton_ladder_matches_sequential_oracle(name, steps, grid, newton, newton_against_oracle):
    ham, lev, spec, integ = _preset_problem(name, steps, grid)
    enumerate_chords(ham, lev, spec, newton, integ)
    (run,) = newton_against_oracle
    assert np.any(run["status"] == solvers._CONVERGED)


def test_newton_ladder_matches_oracle_on_diverging_seeds(plane, newton_against_oracle):
    lev = build_level(plane, 1)
    grid = GridSpec(3, bounds=((-50.0, 50.0), (-50.0, 50.0)))
    enumerate_chords(quartic_plane_K(), lev, grid, integ=IntegratorConfig(64))
    (run,) = newton_against_oracle
    assert np.sum(run["status"] == solvers._DIVERGED) == 8


def test_newton_ladder_matches_oracle_on_flow_fixed_points(torus, newton_against_oracle):
    flow_fixed_points(morse_base(), torus, grid_n=32, integ=IntegratorConfig(256))
    (run,) = newton_against_oracle
    assert np.sum(run["status"] == solvers._CONVERGED) >= 4


def test_newton_ladder_takes_fewer_sweeps(newton_against_oracle):
    """The level-2 scan with stuck seeds, where the oracle halves one sweep
    at a time: the ladder and the speculative probes need fewer sweeps."""
    ham, lev, spec, integ = _preset_problem("sum-n2", 8, 2)
    enumerate_chords(ham, lev, spec, BATCH_NEWTON, integ)
    (run,) = newton_against_oracle
    assert np.any(run["status"] == solvers._STUCK)
    assert run["ladder"] < run["oracle"]


# ---------------------------------------------------------------------------
# multiple shooting in time


def _zero_gap_unknowns(system, seeds):
    """Unknown rows whose slice starts are states of one fine sweep of each
    seed's trajectory, so the sliced residual has zero gaps."""
    n, b = system.integ.n_steps, len(seeds)
    traj = np.empty((n + 1, b) + system.state)
    shoot_residual(system.ham, system.level, seeds.reshape(b, *system.pairs), system.integ, traj)
    starts = np.moveaxis(traj[system.steps : n : system.steps], 0, 1).reshape(b, -1)
    return np.concatenate([seeds, starts], axis=1)


def test_slice_starts_come_from_a_coarse_sweep(rng):
    """The slice starts are bitwise the states of an RK4 sweep of M steps
    from the embedded seeds, also for trajectories that leave [0, 1); the
    first sliced sweep (with its probes, and without) then has small gaps."""
    ham, lev, _, integ = _preset_problem("product-T4", 128, 1)
    seeds = np.vstack([[0.9999, 0.9999], [0.0001, 0.5], rng.random(2)])
    system = _SlicedShooting(ham, lev, integ, 16)
    x0 = system.start(seeds)
    assert x0.shape == (3, 2 + 15 * 4)
    coarse = np.empty((17, 3, lev.copies, lev.space.dim))
    z0 = embed_diagonal_params(lev, 0, seeds.reshape(3, 1, 2))
    solvers._rk4(solvers._stage(ham, lev), z0, 16, coarse)
    assert np.any((coarse < 0) | (coarse >= 1))
    assert np.array_equal(x0[:, :2], seeds)
    assert x0[:, 2:].tobytes() == np.moveaxis(coarse[1:16], 0, 1).reshape(3, -1).tobytes()
    r = system.resid(x0)
    assert system.linearize(x0, 1e-6)[0].tobytes() == r.tobytes()
    assert 0 < np.max(np.abs(r[:, 2:])) <= 1e-7


@pytest.mark.parametrize("name", ["product-T4", "torus-morse-n1"])
def test_condensed_jacobian_matches_single_shooting(name, rng):
    """E A_14 ... A_1 G from slice-by-slice central differences matches the
    central-difference Jacobian of single shooting, and at zero gaps the
    condensed right side is the end residual."""
    ham, lev, _, integ = _preset_problem(name, 128, 1)
    seeds = rng.random((2, 2))
    system = _SlicedShooting(ham, lev, integ, 16)
    x0 = _zero_gap_unknowns(system, seeds)
    r, jac = system.linearize(x0, 1e-6)
    mat, rhs = system.condense(jac, r)
    def resid(flat, path=None):
        return shoot_residual(ham, lev, flat.reshape(len(flat), 1, 2), integ, path).reshape(len(flat), -1)

    want = _SquareSystem(resid, lev.space, None).linearize(seeds, 1e-6)[1]
    assert np.max(np.abs(mat - want)) <= 1e-6 * np.max(np.abs(want))
    assert np.array_equal(rhs, r[:, :2])
    # the recovered step satisfies every block row of the full Newton system
    step = system.expand(jac, r, np.linalg.solve(mat, rhs[..., None])[..., 0])
    ds = step[:, 2:].reshape(2, 15, 4)
    np.testing.assert_allclose(ds[:, 0], (jac[:, 0, :, :2] @ step[:, :2, None])[..., 0], rtol=0, atol=1e-15)
    end = (jac[:, -1, :2] @ ds[:, -1, :, None])[..., 0]
    np.testing.assert_allclose(end, r[:, :2], rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("name,seed", [("product-T4", (0.3, 0.7)), ("torus-morse-n1", (0.1, 0.05))])
def test_sliced_solve_finds_the_unsliced_chord(name, seed, monkeypatch):
    """A one-seed solve at 128 steps is sliced by the rule and finds the
    chord of the unsliced solve within DEDUP_TOL.  Its path is the slice
    trajectories of the sweep that accepted it: slice k is bitwise _rk4
    from the path's sample kS over S steps at the slice times.  Its
    residual norm is exactly the max of the path's end mismatch and its
    slice-boundary jumps, within the Newton tolerance, and the path lies
    within 1e-9 of the one integrate gives from its parameters."""
    ham, lev, _, integ = _preset_problem(name, 128, 1)
    seeds = np.array([seed])
    m = _slice_count(integ.n_steps, 1, lev)
    assert m > 1
    monkeypatch.setattr(solvers, "integrate", None)  # the path comes from a Newton sweep
    (sliced,) = _solve_seeds(ham, lev, seeds, NewtonConfig(), integ)
    monkeypatch.undo()
    monkeypatch.setattr(solvers, "_slice_count", lambda *args: 1)
    (single,) = _solve_seeds(ham, lev, seeds, NewtonConfig(), integ)
    assert isinstance(sliced, Chord) and isinstance(single, Chord)
    assert lev.space.distance(sliced.params, single.params) <= solvers.DEDUP_TOL
    samples, steps = sliced.path.samples, integ.n_steps // m
    stage = solvers._stage(ham, lev)
    jumps = []
    for k in range(m):
        traj = np.empty((steps + 1, 1, lev.copies, lev.space.dim))
        end = solvers._rk4(stage, samples[k * steps][None], integ.n_steps, traj, np.array([k * steps]), steps)
        if k < m - 1:
            assert np.array_equal(lev.space.normalize(traj[:-1, 0]), samples[k * steps : (k + 1) * steps])
            jumps.append(lev.space.wrapped_difference(end[0], samples[(k + 1) * steps]))
        else:
            assert np.array_equal(lev.space.normalize(traj[:, 0]), samples[k * steps :])
    mismatch = np.max(np.abs(_end_residual(lev, end[0])))
    assert sliced.residual_norm == max(mismatch, np.max(np.abs(jumps)))
    assert sliced.residual_norm <= NewtonConfig().tol
    path = integrate(ham, lev, embed_diagonal_params(lev, 0, sliced.params), integ)
    assert lev.space.distance(sliced.path.samples, path.samples) <= 1e-9


@pytest.mark.parametrize("seed,tol", [((0.32, 0.75), 0.01), ((0.8163, 0.3794), 0.005)])
def test_rung_converged_sliced_seed_takes_its_path_from_integrate(seed, tol, monkeypatch):
    """With a loose tolerance, this sliced product-T4 seed takes its final
    step from a damping rung (a rung sweep runs): its path is then the one
    integrate sweep's, and its residual norm that path's end mismatch; a
    mismatch above the tolerance (the second seed) is a no-convergence."""
    ham, lev, _, integ = _preset_problem("product-T4", 128, 1)
    assert _slice_count(integ.n_steps, 1, lev) > 1
    rows, rung_sweeps = [], []
    resid = _SlicedShooting.resid

    def counted_integrate(ham, level, z0, cfg):
        rows.append(len(z0))
        return integrate(ham, level, z0, cfg)

    def counted_resid(system, x):
        rung_sweeps.append(len(x))
        return resid(system, x)

    monkeypatch.setattr(solvers, "integrate", counted_integrate)
    monkeypatch.setattr(_SlicedShooting, "resid", counted_resid)
    (result,) = _solve_seeds(ham, lev, np.array([seed]), NewtonConfig(tol=tol), integ)
    assert rung_sweeps and rows == [1]
    if isinstance(result, SolveFailure):
        assert result.reason == "no-convergence" and result.residual_norm > tol
        assert result.detail == f"16-slice solution's path misses the end diagonal by {result.residual_norm:.2e}"
        return
    path = integrate(ham, lev, embed_diagonal_params(lev, 0, result.params), integ)
    assert np.array_equal(result.path.samples, path.samples)
    assert result.residual_norm == np.max(np.abs(_end_residual(lev, path.samples[-1]))) <= tol


# (preset, steps, lower and upper bound of the start coordinates)
BASIN_CASES = [("product-T4", 128, 0.0, 1.0), ("torus-morse-n1", 128, 0.0, 1.0), ("plane-oscillator", 512, -0.8, 0.8)]


@pytest.mark.parametrize("name,steps,lo,hi", BASIN_CASES)
def test_coarse_slice_starts_keep_the_basins(name, steps, lo, hi, monkeypatch):
    """From 8 fixed random starts, the sliced solve reaches the chord that
    the sliced solve from zero-gap slice starts (one fine sweep) reaches,
    and the chord of single shooting from exactly the starts from which
    that one does.  (Multiple-shooting iterates leave single shooting's
    after the first step, so from 3 of these 24 starts both sliced solves
    reach another chord; constant slice starts, every s_k the embedded
    seed, miss the zero-gap chord from 5.)"""
    ham, lev, _, integ = _preset_problem(name, steps, 1)
    starts = lo + (hi - lo) * np.random.default_rng(7).random((8, 2))
    assert _slice_count(steps, 1, lev) > 1

    def one_by_one():
        return [_solve_seeds(ham, lev, s[None], NewtonConfig(), integ)[0] for s in starts]

    coarse = one_by_one()
    monkeypatch.setattr(_SlicedShooting, "start", _zero_gap_unknowns)
    zero_gap = one_by_one()
    monkeypatch.setattr(solvers, "_slice_count", lambda *args: 1)
    single = _solve_seeds(ham, lev, starts, NewtonConfig(), integ)

    def same(a, b):
        return isinstance(a, Chord) and isinstance(b, Chord) and lev.space.distance(a.params, b.params) <= solvers.DEDUP_TOL

    assert all(same(a, b) for a, b in zip(coarse, zero_gap))
    hits = [same(a, c) for a, c in zip(coarse, single)]
    assert sum(hits) >= 6 and hits == [same(b, c) for b, c in zip(zero_gap, single)]


def test_slice_rule_keeps_scans_unsliced(plane):
    """M = 1 for the benchmark's chord-scan and tower-scan shapes, every
    batch and oracle scan of these tests, the 9-seed diverging plane scan,
    the product-T4 preset and a level-2 seed; one or two level-1 seeds at
    128 steps and up are sliced."""
    shapes = [(name, 32, 4) for name in ("torus-morse-n1", "product-T4", "plane-oscillator")]
    shapes += [("sum-n2", 8, 3), ("rr-chain-13", 9, 3), ("product-T4", 4096, 4)]
    shapes += [case[:3] for case in BATCH_CASES + list(ORACLE_CASES.values())]
    for name, steps, grid in shapes:
        lev = _preset_problem(name, steps, grid)[1]
        assert _slice_count(steps, grid ** solvers._flat_dim(lev), lev) == 1, (name, steps, grid)
    assert _slice_count(64, 9, build_level(plane, 1)) == 1
    assert _slice_count(1024, 1, _preset_problem("sum-n2", 1024, 1)[1]) == 1
    for steps in (128, 1024):
        for seeds in (1, 2):
            assert _slice_count(steps, seeds, build_level(plane, 1)) > 1


@pytest.mark.parametrize(
    "name,steps,slices",
    [("product-T4", 128, 16), ("product-T4", 1024, 32), ("torus-morse-n1", 128, 16), ("plane-oscillator", 512, 32)],
)
def test_slice_rule_pins_one_seed_slice_counts(name, steps, slices):
    """The slice counts of one-seed solves stay as fitted: a new M moves
    the chord that some one-seed starts reach (see the cost model's note)."""
    lev = _preset_problem(name, steps, 1)[1]
    assert _slice_count(steps, 1, lev) == slices


def test_sliced_scan_tallies_diverging_seeds(plane, monkeypatch):
    """Seeds whose trajectories overflow in the start sweep end 'diverged'
    in a sliced scan too, and the seed at the origin still gives its chord."""
    monkeypatch.setattr(solvers, "_slice_count", lambda *args: 8)
    lev = build_level(plane, 1)
    grid = GridSpec(3, bounds=((-50.0, 50.0), (-50.0, 50.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        orbits = enumerate_chords(quartic_plane_K(), lev, grid, integ=IntegratorConfig(64))
    d = orbits.diagnostics
    assert d["failures"]["diverged"] == 8 and d["solved"] == 1
    assert orbits.count() == 1 and np.all(orbits.members[0].params == 0.0)


def test_chord_order_survives_rounding_moves(torus, monkeypatch):
    """Members are ordered by their parameters on the DEDUP_TOL grid: moving
    chord parameters by 1e-13 reorders nothing, also where two chords'
    leading parameters agree to rounding, which raw tuples would swap."""
    lev = build_level(torus, 1)
    base = np.array([[0.5, 0.5], [0.5, 0.0], [0.25, 0.75], [0.0, 0.5]])

    def members(params):
        def solve(ham, level, seeds, newton, integ):
            out = []
            for p in params:
                samples = np.repeat(embed_diagonal_params(lev, 0, p[None])[None], integ.n_steps + 1, axis=0)
                out.append(Chord(p[None], DiscreteCurve(torus, 1, samples, False), 0.0, 1.0))
            return out

        monkeypatch.setattr(solvers, "_solve_seeds", solve)
        return enumerate_chords(ZERO_K1, lev, GridSpec(1), integ=IntegratorConfig(2)).members

    moved = base + np.array([[-1e-13, 0.0], [1e-13, 0.0], [1e-13, -1e-13], [-1e-13, 1e-13]])
    assert tuple(moved[0]) < tuple(moved[1]) and tuple(base[1]) < tuple(base[0])
    before, after = members(base), members(moved)
    assert len(before) == len(after) == 4
    for a, b in zip(before, after):
        assert np.max(np.abs(a.params - b.params)) <= 2e-13


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
    loop = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.4, 0.1]), 64, breakpoints=d.breakpoints())
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


def _one_sided_derivatives_loop(loop, k0, k1):
    """The per-node stencil loop that _one_sided_derivatives replaces."""
    h = 1.0 / loop.n_intervals
    seg = loop.samples[k0 : k1 + 1, 0, :].copy()
    if loop.space.topology == "torus":
        diffs = seg[1:] - seg[:-1]
        diffs -= np.ceil(diffs - 0.5)
        seg[1:] = seg[0] + np.cumsum(diffs, axis=0)
    m = k1 - k0
    out = np.empty((m - 1, seg.shape[1]))
    for i in range(1, m):
        if i + 2 <= m:
            out[i - 1] = (-3 * seg[i] + 4 * seg[i + 1] - seg[i + 2]) / (2 * h)
        else:
            out[i - 1] = (3 * seg[i] - 4 * seg[i - 1] + seg[i - 2]) / (2 * h)
    return out


@pytest.mark.parametrize("topology", ["torus", "plane"])
def test_one_sided_derivatives_match_loop(topology):
    """The array stencils equal the per-node loop bitwise; the torus loop
    crosses the unit square's edges, so its samples are wrapped."""
    space = PhaseSpace(1, topology)
    loop = DiscreteCurve.from_function(
        space, lambda t: np.hstack([0.9 + 0.6 * t, 0.5 + 0.7 * np.sin(2 * np.pi * t)]), 96
    )
    if topology == "torus":
        assert np.any(np.abs(np.diff(loop.samples[:, 0, 0])) > 0.5)
    for k0, k1 in [(0, 96), (0, 48), (48, 96), (10, 13), (30, 37)]:
        assert np.array_equal(_one_sided_derivatives(loop, k0, k1), _one_sided_derivatives_loop(loop, k0, k1))


def test_solve_stack_marks_singular_rows(rng):
    """One stacked solve gives the per-row steps; a singular row is reported
    unsolved and the others still get their steps."""
    jac = rng.standard_normal((4, 3, 3))
    rhs = rng.standard_normal((4, 3))
    steps, solved = _solve_stack(jac, rhs)
    assert solved.all()
    assert np.array_equal(steps, np.array([np.linalg.solve(j, b) for j, b in zip(jac, rhs)]))
    jac[2] = 0.0
    steps, solved = _solve_stack(jac, rhs)
    assert solved.tolist() == [True, True, False, True]
    for i in (0, 1, 3):
        assert np.array_equal(steps[i], np.linalg.solve(jac[i], rhs[i]))


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
    from tests.oracles import reduce_diagonal_params
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
    seed = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.3, 0.9]), 32, breakpoints=d.breakpoints())
    sol = solve_periodic_delay(d, seed)
    assert isinstance(sol, DiscreteCurve)
    assert sup_distance(sol, seed) == 0.0


def _spline_chain():
    """The tabulated chain of test_spline_chain_pipeline."""
    from hamdelay.transforms import MonotoneSplineMap, ReparamPair

    xs = np.linspace(0, 1, 9)
    alpha = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    beta = MonotoneSplineMap(xs, 1.0 - 0.35 * xs - 0.15 * xs**2)
    return TransformChain((ReparamPair(alpha, beta, 0.5),))


def _rr_chain_13_descriptor():
    data = json.loads(resources.files("hamdelay.presets").joinpath("rr-chain-13.json").read_text())
    cfg = ExperimentConfig.from_dict(data)
    return generate(cfg.structured_hamiltonian(), cfg.chain)


# (descriptor, nodes): standard level-1 and level-2 chains, the affine
# r = 1/3 chain (breakpoints on multiples of 1/9) and the spline chain
COLLOCATION_CASES = {
    "level1": (lambda: generate(product_T4(), TransformChain.standard(1)), 64),
    "level2": (lambda: generate(staggered_product_n2(), TransformChain.standard(2)), 64),
    "rr-chain-13": (_rr_chain_13_descriptor, 81),
    "spline": (lambda: generate(product_T4(), _spline_chain()), 64),
}


def _dense_fd_jacobian(resid, u, r, fd):
    """The per-column forward-difference Jacobian: one residual per unknown."""
    jac = np.empty((r.size, u.size))
    for i in range(u.size):
        up = u.copy()
        up[i] += fd
        jac[:, i] = (resid(up) - r) / fd
    return jac


@pytest.mark.parametrize("case", sorted(COLLOCATION_CASES))
def test_grouped_jacobian_matches_dense_oracle(case, torus, rng):
    make, n = COLLOCATION_CASES[case]
    colloc = _PeriodicCollocation(make(), torus, n)
    u = rng.random(n * torus.dim)
    r = colloc.resid(u)
    fd = solvers.FD_STEP
    dense = _dense_fd_jacobian(colloc.resid, u, r, fd)
    grouped = colloc.jacobian(u, r, fd)
    # every entry bitwise the dense one, and no nonzero outside the pattern
    in_pattern = np.zeros(dense.shape, dtype=bool)
    in_pattern[colloc.entry_rows, colloc.entry_cols] = True
    assert not np.any(dense[~in_pattern])
    assert np.array_equal(grouped.toarray()[in_pattern].view(np.int64), dense[in_pattern].view(np.int64))
    assert np.array_equal(grouped.toarray(), dense)
    # no two columns of one group feed a common row
    for cols in colloc.groups:
        assert np.all(np.count_nonzero(in_pattern[:, cols], axis=1) <= 1)
    assert len(colloc.groups) < n


def _colour_columns_oracle(rows, cols, n):
    """The greedy colouring that tests a boolean mask per colour per column."""
    order = np.lexsort((rows, cols))
    readers = np.split(rows[order], np.cumsum(np.bincount(cols, minlength=n))[:-1])
    colour = np.empty(n, dtype=int)
    fed = []  # per colour, the row blocks its columns feed
    for j, rs in enumerate(readers):
        c = next((c for c, mask in enumerate(fed) if not mask[rs].any()), len(fed))
        if c == len(fed):
            fed.append(np.zeros(n, dtype=bool))
        fed[c][rs] = True
        colour[j] = c
    return colour


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("case", ["level1", "rr-chain-13", "spline"])
def test_colouring_matches_mask_oracle(case, n, torus):
    """The bitmask colouring gives the mask oracle's colours, column by column."""
    colloc = _PeriodicCollocation(COLLOCATION_CASES[case][0](), torus, n)
    rows, cols = colloc._pattern()
    colour = solvers._colour_columns(rows, cols, n)
    assert colour.dtype == int and np.array_equal(colour, _colour_columns_oracle(rows, cols, n))


def test_grouped_jacobian_product_t4_group_count(torus):
    colloc = _PeriodicCollocation(generate(product_T4(), TransformChain.standard(1)), torus, 512)
    assert len(colloc.groups) <= 12


def test_periodic_solver_zero_descriptor_singular_through_splu(torus):
    """With K = 0 the collocation Jacobian is the periodic difference
    operator, singular on constants: splu rejects it, the solve says so."""
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    seed = DiscreteCurve.from_function(
        torus, lambda t: np.hstack([0.3 + 0.1 * np.sin(2 * np.pi * t), np.full_like(t, 0.9)]), 32, breakpoints=d.breakpoints()
    )
    colloc = _PeriodicCollocation(d, torus, 32)
    u = seed.samples[:32, 0, :].reshape(-1)
    r = colloc.resid(u)
    with pytest.raises(RuntimeError):
        splu(colloc.jacobian(u, r, solvers.FD_STEP))
    out = solve_periodic_delay(d, seed)
    assert isinstance(out, SolveFailure) and out.reason == "singular-jacobian"


def test_periodic_solver_nan_seed_diverges(torus):
    """One non-finite node makes the residual non-finite: 'diverged', not a
    damping failure."""
    d = generate(product_T4(), TransformChain.standard(1))
    seed = DiscreteCurve.from_function(
        torus, lambda t: np.hstack([np.full_like(t, 0.2), 0.2 + 0.01 * np.sin(2 * np.pi * t)]), 32, breakpoints=d.breakpoints()
    )
    samples = seed.samples.copy()
    samples[5, 0, 1] = np.nan
    out = solve_periodic_delay(d, DiscreteCurve(torus, 0, samples, True, seed.breakpoints))
    assert isinstance(out, SolveFailure) and out.reason == "diverged"


def test_periodic_solver_grid_misaligned(torus):
    d = generate(StructuredHamiltonian(1, ()), TransformChain.standard(1))
    seed = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.3, 0.9]), 31)
    out = solve_periodic_delay(d, seed)
    assert isinstance(out, SolveFailure) and out.reason == "grid-misaligned"


def test_periodic_solver_at_critical_point(torus):
    chain = TransformChain.standard(1)
    d = generate(lift(morse_base(), chain), chain)
    seed = DiscreteCurve.from_function(
        torus, lambda t: np.full((len(t), 2), [0.001, 0.499]), 64, breakpoints=d.breakpoints()
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


def _write_loop_csv_oracle(path, loop):
    """write_loop_csv as one csv.writer row per value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "coord_index", "value"])
        for k, t in enumerate(loop.times()):
            for i in range(loop.space.dim):
                w.writerow([f"{t:.12g}", i, f"{loop.samples[k, 0, i]:.17g}"])


def _write_chord_csv_oracle(path, chord):
    """write_chord_csv as one csv.writer row per value."""
    curve = chord.path
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "copy", "coord_index", "value"])
        for k, t in enumerate(curve.times()):
            for j in range(curve.copies):
                for i in range(curve.space.dim):
                    w.writerow([f"{t:.12g}", j + 1, i, f"{curve.samples[k, j, i]:.17g}"])


@pytest.mark.parametrize("level", [0, 1, 2])
def test_csv_writers_match_csv_module_oracle(level, tmp_path, plane, rng):
    """Chord files at levels 1 and 2 and a loop file at level 0 are
    byte-identical to the csv module's, with values that need all 17
    digits, -0.0 and 1e-300, and times that need 12 digits or end in an
    exact 1.0."""
    samples = rng.random((8, 2**level, plane.dim)) - 0.5
    samples.flat[:4] = [-0.0, 1e-300, 0.1 + 0.2, -1.0 / 3.0]
    curve = DiscreteCurve(plane, level, samples, level == 0)
    assert curve.times()[-1] == 1.0
    if level == 0:
        write_loop_csv(tmp_path / "got.csv", curve)
        _write_loop_csv_oracle(tmp_path / "want.csv", curve)
    else:
        chord = Chord(samples[0, :1], curve, 0.0, 1.0)
        write_chord_csv(tmp_path / "got.csv", chord)
        _write_chord_csv_oracle(tmp_path / "want.csv", chord)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b",-0\r\n" in got and b",1e-300\r\n" in got
    assert b",0.30000000000000004\r\n" in got and got.endswith(b"\r\n") and b"\n1," in got


def _set_config(name: str) -> dict:
    """A packaged preset, or "spline-chain": torus-morse-n1 on a one-step
    spline chain, whose breakpoint 0.4 is a node of 80 steps; no time map of
    it is affine, so every pulled-back node reads the path's interpolant."""
    preset = "torus-morse-n1" if name == "spline-chain" else name
    data = json.loads(resources.files("hamdelay.presets").joinpath(f"{preset}.json").read_text())
    if name == "spline-chain":
        alpha, beta = [[0, 0], [0.5, 0.2], [1, 0.4]], [[0, 1], [0.5, 0.7], [1, 0.4]]
        data["chain"] = {"steps": [{"kind": "spline", "alpha": alpha, "beta": beta}]}
    return data


def _chord_set(name: str, steps: int, grid):
    """The chain and the kept chords of `chords --steps steps --grid grid`
    (the config's grid for None) on the named config."""
    cfg = ExperimentConfig.from_dict(_set_config(name))
    level = build_level(cfg.space, cfg.chain.level)
    spec = cfg.grid if grid is None else GridSpec(grid, cfg.grid.bounds)
    integ = IntegratorConfig(cfg.aligned_nodes(steps))
    return cfg.chain, enumerate_chords(cfg.structured_hamiltonian(), level, spec, cfg.newton, integ).members


# the halving chain at level 2, the r = 1/3 chain, the level-3 tower and the
# spline chain, whose pullbacks read only the interpolants
CHORD_SETS = [("sum-n2", 64, 2), ("rr-chain-13", 18, 2), ("product-n3-full", 64, 2), ("spline-chain", 80, None)]


@pytest.mark.parametrize("name,steps,grid", CHORD_SETS)
def test_set_pullback_matches_per_path_oracle(name, steps, grid):
    """Pulling a chord set back in one call gives, path by path, bitwise
    the loops of the per-curve pullback, and so do a set of one and a lone
    chord; an empty set gives no loop."""
    chain, chords = _chord_set(name, steps, grid)
    assert len(chords) >= 4
    want = [phi_chain_oracle(chain, c.path) for c in chords]
    one_by_one = [pullback_chord(c, chain) for c in chords]
    sets_of_one = [pullback_chord([c], chain)[0] for c in chords]
    for got in (pullback_chord(chords, chain), one_by_one, sets_of_one):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.level, g.is_loop, g.breakpoints) == (w.level, w.is_loop, w.breakpoints)
            assert g.samples.shape == w.samples.shape and g.samples.tobytes() == w.samples.tobytes()
    assert pullback_chord([], chain) == []


def _off_diagonal(path: DiscreteCurve, nodes) -> DiscreteCurve:
    """The path with copy 0 moved by 1e-5 at the given nodes."""
    samples = path.samples.copy()
    samples[list(nodes), 0] = np.mod(samples[list(nodes), 0] + 1e-5, 1.0)
    return DiscreteCurve(path.space, path.level, samples, False)


@pytest.mark.parametrize("nodes,side", [((0,), "start"), ((-1,), "end"), ((0, -1), "start")])
def test_set_pullback_rejects_an_off_diagonal_path(nodes, side):
    """One path off its start or end diagonal, or both, sinks the set with
    the per-curve check's message, wherever it sits in the set; of two
    such paths the first one in the set is reported."""
    chain, chords = _chord_set("sum-n2", 64, 2)
    paths = [c.path for c in chords]
    bad = _off_diagonal(paths[2], nodes)
    message = f"path {side} is not on the {side} diagonal"
    with pytest.raises(ValueError) as want:
        check_boundary(bad)
    assert str(want.value) == message
    for at in (0, 2, len(paths)):
        with pytest.raises(ValueError) as got:
            phi_chain(chain, paths[:at] + [bad] + paths[at:])
        assert str(got.value) == message
    other = _off_diagonal(paths[3], (-1,) if side == "start" else (0,))
    with pytest.raises(ValueError) as got:
        phi_chain(chain, [paths[0], bad, paths[1], other])
    assert str(got.value) == message


@pytest.mark.parametrize("name,steps,grid", [("sum-n2", 8, 2), ("spline-chain", 80, None)])
def test_chords_out_directory_matches_csv_module_oracles(name, steps, grid, tmp_path):
    """Every chord and loop file that `chords` writes is byte-identical to
    the csv module's file of the same chord and of its per-curve pullback."""
    from hamdelay.cli import main

    (tmp_path / "cfg.json").write_text(json.dumps(_set_config(name)))
    argv = ["chords", "--config", str(tmp_path / "cfg.json"), "--steps", str(steps), "--out", str(tmp_path / "got")]
    assert main(argv + ([] if grid is None else ["--grid", str(grid)])) == 0
    chain, chords = _chord_set(name, steps, grid)
    want = tmp_path / "want"
    want.mkdir()
    for i, chord in enumerate(chords):
        _write_chord_csv_oracle(want / f"chord_{i:03d}.csv", chord)
        _write_loop_csv_oracle(want / f"loop_{i:03d}.csv", phi_chain_oracle(chain, chord.path))
    written = sorted(f.name for f in (tmp_path / "got").iterdir() if f.suffix == ".csv")
    assert written == sorted(f.name for f in want.iterdir()) and len(written) == 2 * len(chords) >= 8
    for f in written:
        assert (tmp_path / "got" / f).read_bytes() == (want / f).read_bytes(), f


def test_orbitset_summary_json(torus):
    lev = build_level(torus, 1)
    K = lift(morse_base(), TransformChain.standard(1))
    orbits = enumerate_chords(K, lev, GridSpec(2), integ=IntegratorConfig(128))
    summary = orbits.summary()
    assert {"count", "degenerate", "seeds", "failures"} <= set(summary)
    import json

    assert json.loads(orbits.to_json())["count"] == summary["count"]


# Builds a monotone spline map, a tabulated time profile and a periodic delay
# solve (from the pulled-back product-T4 chord), each the first use of its
# scipy routine in a fresh interpreter.
SCIPY_USERS = """
import json
from importlib import resources

import numpy as np

from hamdelay.cli import ExperimentConfig
from hamdelay.delaygen import generate
from hamdelay.geometry import build_level
from hamdelay.hamiltonians import TabulatedTime
from hamdelay.solvers import IntegratorConfig, NewtonConfig, pullback_chord, solve_chord, solve_periodic_delay
from hamdelay.transforms import MonotoneSplineMap, resample


def scipy_users():
    ts = np.linspace(0.0, 1.0, 13)
    xs = np.linspace(0.0, 1.0, 9)
    spline_map = MonotoneSplineMap(xs, 0.25 * xs + 0.25 * xs**2)
    profile = TabulatedTime((0.1, 0.5, 0.9, 0.4))
    cfg = ExperimentConfig.from_dict(json.loads(resources.files("hamdelay.presets").joinpath("product-T4.json").read_text()))
    ham = cfg.structured_hamiltonian()
    chord = solve_chord(ham, build_level(cfg.space, 1), np.array([0.2, 0.2]), integ=IntegratorConfig(2**9))
    seed = resample(pullback_chord(chord, cfg.chain), 64)
    sol = solve_periodic_delay(generate(ham, cfg.chain), seed, NewtonConfig(tol=1e-9))
    return {
        "spline_map": [spline_map(ts).tolist(), spline_map.deriv(ts).tolist()],
        "tabulated": profile(ts).tolist(),
        "periodic": sol.samples.tolist(),
    }
"""


def test_scipy_users_after_deferred_import():
    """scipy loads on the first spline map, tabulated profile or periodic
    solve, not with the package, and each then gives bitwise the result it
    gives in this process, where scipy is already loaded."""
    probe = SCIPY_USERS + """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = scipy_modules()
results = scipy_users()
print(json.dumps({"before": before, "after": scipy_modules(), "results": results}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert fresh["before"] == []
    assert {"scipy.interpolate", "scipy.sparse.linalg"} <= set(fresh["after"])
    namespace = {}
    exec(SCIPY_USERS, namespace)
    assert fresh["results"] == namespace["scipy_users"]()
    assert len(fresh["results"]["periodic"]) == 65
