"""Numerical engines: flow integration, chord shooting, pullback, and the
independent periodic delay-orbit solver.

The chord boundary value problem (start on the matched start diagonal, end
on the level diagonal) is solved by damped Newton on a shooting residual;
the residual dimension equals the diagonal parameter dimension, so the
finite-difference Jacobians stay small.  Batched initial conditions share
one fixed-step RK4 sweep, which keeps multistart scans cheap: all seeds ride
each Newton sweep, and after Newton the paths of every converged seed come
from one more batched sweep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from .geometry import LevelStructure, build_level, embed_diagonal_params
from .transforms import DiscreteCurve, TransformChain, phi_chain, _breakpoint_node
from .hamiltonians import vector_field
from .delaygen import DelayEquationDescriptor, rhs_eval


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 over [0, 1]."""

    n_steps: int = 2**10

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("need at least one step")


def aligned_steps(target: int, denominator: int) -> int:
    """Smallest multiple of denominator that is >= target."""
    return denominator * math.ceil(target / denominator)


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 50
    tol: float = 1e-10
    fd_step: float = 1e-6
    min_damping: float = 2.0**-20
    cond_limit: float = 1e12

    def __post_init__(self):
        if min(self.max_iter, self.tol, self.fd_step, self.min_damping, self.cond_limit) <= 0:
            raise ValueError("Newton settings must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Uniform multistart seed grid over the diagonal parameters."""

    points_per_dim: int = 8
    bounds: tuple | None = None  # ((lo, hi), ...) per coordinate; required on the plane


@dataclass(eq=False)
class Chord:
    """A solved chord: start parameters, sampled path, and diagnostics."""

    params: np.ndarray
    path: DiscreteCurve
    residual_norm: float
    jac_cond: float

    @property
    def degenerate(self) -> bool:
        return not np.isfinite(self.jac_cond) or self.jac_cond > 1e12


@dataclass(frozen=True)
class SolveFailure:
    reason: str  # "no-convergence" | "singular-jacobian" | "diverged" (non-finite) | "grid-misaligned"
    residual_norm: float = math.inf
    detail: str = ""


@dataclass(eq=False)
class OrbitSet:
    """Deduplicated solutions with degeneracy diagnostics."""

    members: tuple
    degenerate: bool
    dedup_tol: float
    diagnostics: dict = field(default_factory=dict)

    def count(self) -> int:
        return len(self.members)

    def summary(self) -> dict:
        out = {
            "count": self.count(),
            "degenerate": self.degenerate,
            "dedup_tol": self.dedup_tol,
        }
        out.update(self.diagnostics)
        residuals = [m.residual_norm for m in self.members if hasattr(m, "residual_norm")]
        if residuals:
            out["max_residual"] = max(residuals)
        conds = [m.jac_cond for m in self.members if hasattr(m, "jac_cond")]
        if conds:
            out["jac_cond_range"] = [min(conds), max(conds)]
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, default=float)


# ---------------------------------------------------------------------------
# integration


def _rk4(field, z0: np.ndarray, n_steps: int, keep_path: bool = False) -> np.ndarray:
    """Classical RK4 over [0, 1]: the end point, or with keep_path the
    (n_steps + 1, *z0.shape) trajectory; shooting sweeps keep no buffer."""
    h = 1.0 / n_steps
    z = np.array(z0, dtype=float)
    path = [z]
    for i in range(n_steps):
        t = i * h
        k1 = field(z, t)
        k2 = field(z + 0.5 * h * k1, t + 0.5 * h)
        k3 = field(z + 0.5 * h * k2, t + 0.5 * h)
        k4 = field(z + h * k3, t + h)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if keep_path:
            path.append(z)
    return np.stack(path) if keep_path else z


def integrate(ham, level: LevelStructure, z0, cfg: IntegratorConfig = IntegratorConfig()):
    """RK4 trajectory of z' = X_K(z, t) over [0, 1].

    z0 of shape (copies, dim) gives one DiscreteCurve; a batch of shape
    (B, copies, dim) gives a list of B curves, one per row, from one sweep.
    """
    z0 = np.asarray(z0, dtype=float)
    batch = z0.reshape(-1, *z0.shape[-2:])
    traj = _rk4(lambda z, t: vector_field(ham, level, z, t), batch, cfg.n_steps, keep_path=True)
    if not np.all(np.isfinite(traj)):
        raise FloatingPointError("trajectory overflowed")
    rows = np.ascontiguousarray(np.moveaxis(level.space.normalize(traj), 1, 0))
    curves = [DiscreteCurve(level.space, level.level, samples, False) for samples in rows]
    return curves[0] if z0.ndim == 2 else curves


# ---------------------------------------------------------------------------
# chord shooting


def _flat_dim(level: LevelStructure) -> int:
    return 2 ** (level.level - 1) * level.space.dim


def shoot_residual(ham, level: LevelStructure, params, cfg: IntegratorConfig = IntegratorConfig()):
    """Wrapped endpoint mismatches over the end-diagonal pairs.

    params has shape (..., 2^{n-1}, dim); the residual has the same shape,
    one row per end-matching pair, so the shooting system is square.
    """
    params = np.asarray(params, dtype=float)
    z0 = embed_diagonal_params(level, 0, params)
    zT = _rk4(lambda z, t: vector_field(ham, level, z, t), z0, cfg.n_steps)
    out = np.empty_like(params)
    for i, (a, b) in enumerate(level.matching1):
        out[..., i, :] = level.space.wrapped_difference(zT[..., a, :], zT[..., b, :])
    return out


def _wrap_params(level: LevelStructure, flat: np.ndarray) -> np.ndarray:
    if level.space.topology == "torus":
        return np.mod(flat, 1.0)
    return flat


_RUNNING, _CONVERGED, _SINGULAR, _STUCK, _DIVERGED = 0, 1, 2, 3, 4


def _fd_jacobians(resid_fn, p: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians at every row of p from one batched call."""
    nb, dim = p.shape
    eye = np.eye(dim)
    probes = np.concatenate([p[:, None, :] + h * eye, p[:, None, :] - h * eye], axis=1)
    rr = resid_fn(probes.reshape(-1, dim)).reshape(nb, 2 * dim, dim)
    return (rr[:, :dim, :] - rr[:, dim:, :]).transpose(0, 2, 1) / (2 * h)


def _newton_batch(resid_fn, wrap_fn, seeds: np.ndarray, newton: NewtonConfig):
    """Damped Newton on a batch of square systems sharing one residual sweep.

    resid_fn maps (B, P) parameter rows to (B, P) residual rows; every
    residual evaluation for every seed and finite-difference probe rides the
    same batched call, so the cost per iteration is one sweep.  Returns
    final parameters, residuals, per-seed status, and Jacobian condition
    estimates.  The iteration history of each seed matches what a scalar
    solver would produce.  A seed whose residual or Jacobian is not finite
    is marked diverged and leaves the iteration.
    """
    # diverging seeds overflow on their way to the 'diverged' status; the
    # status is the report, so numpy's warnings on them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array(seeds, dtype=float)
        r = resid_fn(p)
        status = np.full(len(p), _RUNNING, dtype=int)
        conds = np.full(len(p), np.nan)
        status[np.max(np.abs(r), axis=1) <= newton.tol] = _CONVERGED
        status[~np.all(np.isfinite(r), axis=1)] = _DIVERGED
        for _ in range(newton.max_iter):
            active = np.flatnonzero(status == _RUNNING)
            if len(active) == 0:
                break
            jac = _fd_jacobians(resid_fn, p[active], newton.fd_step)
            step_by_seed: dict[int, np.ndarray] = {}
            for i, a in enumerate(active):
                if not np.all(np.isfinite(jac[i])):
                    status[a] = _DIVERGED
                    continue
                cond = float(np.linalg.cond(jac[i]))
                conds[a] = cond
                if not np.isfinite(cond) or cond > newton.cond_limit:
                    status[a] = _SINGULAR
                    continue
                try:
                    step_by_seed[a] = np.linalg.solve(jac[i], r[a])
                except np.linalg.LinAlgError:
                    status[a] = _SINGULAR
            active = np.flatnonzero(status == _RUNNING)
            if len(active) == 0:
                break
            lam = np.ones(len(active))
            accepted = np.zeros(len(active), dtype=bool)
            base_norm = np.linalg.norm(r[active], axis=1)
            step_rows = np.array([step_by_seed[a] for a in active])
            while not np.all(accepted) and np.min(lam[~accepted]) >= newton.min_damping:
                trial_idx = np.flatnonzero(~accepted)
                trials = wrap_fn(p[active[trial_idx]] - lam[trial_idx, None] * step_rows[trial_idx])
                r_try = resid_fn(trials)
                better = np.linalg.norm(r_try, axis=1) < base_norm[trial_idx]
                for k, j in enumerate(trial_idx):
                    if better[k]:
                        a = active[j]
                        p[a] = trials[k]
                        r[a] = r_try[k]
                        accepted[j] = True
                    else:
                        lam[j] *= 0.5
            for j in np.flatnonzero(~accepted):
                status[active[j]] = _STUCK
            done = np.max(np.abs(r), axis=1) <= newton.tol
            status[(status == _RUNNING) & done] = _CONVERGED
        status[status == _RUNNING] = _STUCK
        # condition estimates for seeds that converged before any Jacobian was built
        fresh = np.flatnonzero((status == _CONVERGED) & ~np.isfinite(conds))
        if len(fresh):
            jac = _fd_jacobians(resid_fn, p[fresh], newton.fd_step)
            for i, a in enumerate(fresh):
                if np.all(np.isfinite(jac[i])):
                    conds[a] = float(np.linalg.cond(jac[i]))
        return p, r, status, conds


def _solve_seeds(ham, level: LevelStructure, seeds: np.ndarray, newton: NewtonConfig, integ: IntegratorConfig) -> list:
    """The one chord shooting path: batched Newton on the shooting residual
    from every seed row, then the paths of all converged seeds in one
    integrate sweep; returns a Chord or SolveFailure per seed."""
    shape = (2 ** (level.level - 1), level.space.dim)

    def resid(flat_batch):
        batch = flat_batch.reshape(flat_batch.shape[0], *shape)
        return shoot_residual(ham, level, batch, integ).reshape(flat_batch.shape[0], -1)

    ps, rs, status, conds = _newton_batch(resid, partial(_wrap_params, level), seeds, newton)
    params = ps.reshape(len(ps), *shape)
    converged = np.flatnonzero(status == _CONVERGED)
    z0 = embed_diagonal_params(level, 0, params[converged])
    paths = iter(integrate(ham, level, z0, integ) if len(converged) else [])
    results = []
    for p, r, s, cond in zip(params, rs, status, conds):
        norm = float(np.max(np.abs(r)))
        if s == _CONVERGED:
            results.append(Chord(p, next(paths), norm, float(cond)))
        elif s == _SINGULAR:
            results.append(SolveFailure("singular-jacobian", norm, f"cond {cond:.2e}"))
        elif s == _DIVERGED:
            results.append(SolveFailure("diverged", norm, "non-finite residual or Jacobian"))
        else:
            results.append(SolveFailure("no-convergence", norm))
    return results


def solve_chord(
    ham,
    level: LevelStructure,
    seed_params,
    newton: NewtonConfig = NewtonConfig(),
    integ: IntegratorConfig = IntegratorConfig(),
):
    """Damped Newton on the shooting residual from one seed, the one-seed
    case of enumerate_chords; returns Chord or SolveFailure."""
    p = np.asarray(seed_params, dtype=float).reshape(-1)
    if p.size != _flat_dim(level):
        raise ValueError(f"seed must have {_flat_dim(level)} parameters")
    return _solve_seeds(ham, level, p[None], newton, integ)[0]


def _chord_distance(a: Chord, b: Chord) -> float:
    space = a.path.space
    return float(np.max(np.abs(space.wrapped_difference(a.path.samples, b.path.samples))))


def _seed_grid(level: LevelStructure, grid: GridSpec) -> np.ndarray:
    dim = _flat_dim(level)
    if level.space.topology == "torus":
        axes = [np.linspace(0.0, 1.0, grid.points_per_dim, endpoint=False) for _ in range(dim)]
    else:
        if grid.bounds is None or len(grid.bounds) != dim:
            raise ValueError("plane enumeration needs explicit bounds per parameter")
        axes = [np.linspace(lo, hi, grid.points_per_dim) for lo, hi in grid.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


DEDUP_TOL = 1e-5


def enumerate_chords(
    ham,
    level: LevelStructure,
    grid: GridSpec = GridSpec(),
    newton: NewtonConfig = NewtonConfig(),
    integ: IntegratorConfig = IntegratorConfig(),
) -> OrbitSet:
    """Multistart shooting over a uniform seed grid, deduplicated and sorted.

    Failures are tallied, not fatal.  The degeneracy flag is set when
    Jacobians are singular at scale or when surviving solutions fail to
    separate cleanly, in which case counting is ill-posed.
    """
    seeds = _seed_grid(level, grid)
    chords: list[Chord] = []
    failures = {"no-convergence": 0, "singular-jacobian": 0}
    for result in _solve_seeds(ham, level, seeds, newton, integ):
        if isinstance(result, Chord):
            chords.append(result)
        else:
            failures[result.reason] = failures.get(result.reason, 0) + 1
    chords.sort(key=lambda c: tuple(c.params.ravel()))
    kept: list[Chord] = []
    for c in chords:
        if all(_chord_distance(c, k) > DEDUP_TOL for k in kept):
            kept.append(c)
    singular_fraction = failures["singular-jacobian"] / max(len(seeds), 1)
    min_separation = min((_chord_distance(a, b) for a, b in combinations(kept, 2)), default=math.inf)
    degenerate = (
        any(c.degenerate for c in kept)
        or singular_fraction > 0.25
        or (len(kept) > 1 and min_separation < 10 * DEDUP_TOL)
    )
    diagnostics = {
        "seeds": len(seeds),
        "solved": len(chords),
        "failures": failures,
        "singular_fraction": singular_fraction,
        "min_separation": None if math.isinf(min_separation) else min_separation,
    }
    return OrbitSet(tuple(kept), degenerate, DEDUP_TOL, diagnostics)


# ---------------------------------------------------------------------------
# pullback and delay-equation residuals


def pullback_chord(chord: Chord, chain: TransformChain) -> DiscreteCurve:
    """Pulls the chord back to a periodic loop; breakpoints are marked."""
    return phi_chain(chain, chord.path)


def _one_sided_derivatives(loop: DiscreteCurve, k0: int, k1: int) -> np.ndarray:
    """Second-order one-sided derivatives at interior nodes of [k0, k1].

    Right-sided stencils stay inside the segment; the last interior node
    uses the left-sided stencil.  Torus samples are unwrapped locally.
    """
    n = loop.n_intervals
    h = 1.0 / n
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


def delay_residual(d: DelayEquationDescriptor, loop: DiscreteCurve) -> float:
    """Max mismatch between one-sided loop derivatives and the symbolic RHS,
    over all off-breakpoint grid nodes."""
    n = loop.n_intervals
    worst = 0.0
    for seg in d.segments:
        k0 = _breakpoint_node(seg.lo, n)
        k1 = _breakpoint_node(seg.hi, n)
        if k0 is None or k1 is None:
            raise ValueError("loop grid is misaligned with the descriptor")
        if k1 - k0 < 3:
            raise ValueError("need at least 3 intervals per segment for the stencils")
        ks = np.arange(k0 + 1, k1)
        rhs = rhs_eval(d, loop, ks / n)
        deriv = _one_sided_derivatives(loop, k0, k1)
        worst = max(worst, float(np.max(np.abs(deriv - rhs))))
    return worst


# ---------------------------------------------------------------------------
# independent periodic delay solver


class _LinearLoopInterpolant:
    """Periodic piecewise-linear interpolant over loop nodes (torus-aware)."""

    def __init__(self, nodes: np.ndarray, space):
        self.nodes = nodes  # (N, dim), node k at time k/N
        self.space = space
        self.n = nodes.shape[0]

    def interpolant(self):
        return self

    def evaluate(self, t):
        t = np.mod(np.atleast_1d(np.asarray(t, float)), 1.0)
        pos = t * self.n
        k = np.floor(pos).astype(int) % self.n
        frac = pos - np.floor(pos)
        a = self.nodes[k]
        step = self.nodes[(k + 1) % self.n] - a
        if self.space.topology == "torus":
            step -= np.ceil(step - 0.5)
        return (a + frac[:, None] * step)[:, None, :]


def solve_periodic_delay(
    d: DelayEquationDescriptor,
    seed: DiscreteCurve,
    newton: NewtonConfig = NewtonConfig(tol=1e-9),
):
    """Newton on midpoint collocation of the periodic delay system.

    Unknowns are the N loop nodes; each interval contributes the equation
    (v_{k+1} - v_k)/h = rhs(t_{k+1/2}) with delayed reads through a periodic
    linear interpolant, matching the collocation order.
    """
    n = seed.n_intervals
    space = seed.space
    for b in d.breakpoints():
        if _breakpoint_node(b, n) is None:
            return SolveFailure("grid-misaligned", detail=f"breakpoint {b} off the seed grid")
    dim = space.dim
    u = seed.samples[:n, 0, :].reshape(-1).copy()
    h = 1.0 / n
    mids = (np.arange(n) + 0.5) * h

    def resid(flat):
        nodes = flat.reshape(n, dim)
        interp = _LinearLoopInterpolant(nodes, space)
        f = rhs_eval(d, interp, mids)
        du = nodes[(np.arange(n) + 1) % n] - nodes
        if space.topology == "torus":
            du -= np.ceil(du - 0.5)
        return (du / h - f).reshape(-1)

    r = resid(u)
    converged = np.max(np.abs(r)) <= newton.tol
    for _ in range(newton.max_iter):
        if converged:
            break
        jac = np.empty((r.size, u.size))
        fd = newton.fd_step
        for i in range(u.size):
            up = u.copy()
            up[i] += fd
            jac[:, i] = (resid(up) - r) / fd
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            return SolveFailure("singular-jacobian", float(np.max(np.abs(r))))
        lam = 1.0
        r_norm = np.linalg.norm(r)
        while lam >= newton.min_damping:
            u_try = u - lam * step
            if space.topology == "torus":
                u_try = np.mod(u_try, 1.0)
            r_try = resid(u_try)
            if np.linalg.norm(r_try) < r_norm:
                u, r = u_try, r_try
                break
            lam *= 0.5
        else:
            return SolveFailure("no-convergence", float(np.max(np.abs(r))), "damping exhausted")
        converged = np.max(np.abs(r)) <= newton.tol
    if not converged:
        return SolveFailure("no-convergence", float(np.max(np.abs(r))), "iteration cap")
    nodes = u.reshape(n, dim)
    samples = np.vstack([nodes, nodes[:1]])[:, None, :]
    return DiscreteCurve(space, 0, space.normalize(samples), True, d.breakpoints())


# ---------------------------------------------------------------------------
# baseline oracle: fixed points of the time-1 flow on the base space


@dataclass(eq=False)
class FixedPoint:
    point: np.ndarray
    residual_norm: float
    jac_cond: float
    loop: DiscreteCurve | None = None

    @property
    def degenerate(self) -> bool:
        return not np.isfinite(self.jac_cond) or self.jac_cond > 1e12


def flow_fixed_points(
    ham,
    space,
    grid_n: int = 64,
    newton: NewtonConfig = NewtonConfig(),
    integ: IntegratorConfig = IntegratorConfig(),
) -> OrbitSet:
    """Scans the torus for fixed points of the time-1 flow map of a base
    Hamiltonian, polishing local minima of the displacement with Newton."""
    if space.topology != "torus":
        raise ValueError("the fixed-point scan needs a compact (torus) base")
    level0 = build_level(space, 0)
    axes = [np.linspace(0.0, 1.0, grid_n, endpoint=False) for _ in range(space.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)[:, None, :]  # (B, 1, dim)

    def displacement(z):
        zT = _rk4(lambda w, t: vector_field(ham, level0, w, t), z, integ.n_steps)
        return space.wrapped_difference(zT, z)

    disp = displacement(pts)
    norms = np.max(np.abs(disp), axis=(1, 2)).reshape([grid_n] * space.dim)
    trivial_fraction = float(np.mean(norms <= 1e-12))
    if trivial_fraction > 0.1:
        return OrbitSet(
            (),
            True,
            DEDUP_TOL,
            {"grid": grid_n, "trivial_fraction": trivial_fraction, "note": "flow map is identity at scale"},
        )
    candidates = _grid_local_minima(norms)
    if not candidates:
        return OrbitSet((), False, DEDUP_TOL, {"grid": grid_n, "candidates": 0})
    seeds = np.array([[axes[i][idx[i]] for i in range(space.dim)] for idx in candidates])

    def resid(flat_batch):
        return displacement(flat_batch[:, None, :]).reshape(flat_batch.shape[0], -1)

    ps, rs, status, conds = _newton_batch(resid, partial(_wrap_params, level0), seeds, newton)
    converged = np.flatnonzero(status == _CONVERGED)
    paths = integrate(ham, level0, ps[converged, None, :], integ) if len(converged) else []
    found = [
        FixedPoint(ps[i], float(np.max(np.abs(rs[i]))), float(conds[i]), DiscreteCurve(space, 0, path.samples, True))
        for i, path in zip(converged, paths)
    ]
    found.sort(key=lambda fp: tuple(fp.point))
    kept: list[FixedPoint] = []
    for fp in found:
        if all(np.max(np.abs(space.wrapped_difference(fp.point, k.point))) > DEDUP_TOL for k in kept):
            kept.append(fp)
    degenerate = any(fp.degenerate for fp in kept)
    return OrbitSet(
        tuple(kept),
        degenerate,
        DEDUP_TOL,
        {"grid": grid_n, "candidates": len(candidates), "trivial_fraction": trivial_fraction},
    )


def _grid_local_minima(norms: np.ndarray) -> list[tuple]:
    """Indices of grid points not exceeded by any axis neighbor (periodic)."""
    mask = np.ones_like(norms, dtype=bool)
    for axis in range(norms.ndim):
        for shift in (1, -1):
            mask &= norms <= np.roll(norms, shift, axis=axis)
    return [tuple(idx) for idx in np.argwhere(mask)]


# ---------------------------------------------------------------------------
# output formats


def write_loop_csv(path, loop: DiscreteCurve) -> None:
    """Base-loop CSV: t,coord_index,value."""
    ts = loop.times()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "coord_index", "value"])
        for k, t in enumerate(ts):
            for i in range(loop.space.dim):
                w.writerow([f"{t:.12g}", i, f"{loop.samples[k, 0, i]:.17g}"])


def write_chord_csv(path, chord: Chord) -> None:
    """Chord CSV: t,copy,coord_index,value (copies 1-based)."""
    curve = chord.path
    ts = curve.times()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "copy", "coord_index", "value"])
        for k, t in enumerate(ts):
            for j in range(curve.copies):
                for i in range(curve.space.dim):
                    w.writerow([f"{t:.12g}", j + 1, i, f"{curve.samples[k, j, i]:.17g}"])
