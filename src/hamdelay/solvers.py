"""Numerical engines: flow integration, chord shooting, pullback, and the
independent periodic delay-orbit solver.

The chord boundary value problem (start on the matched start diagonal, end
on the level diagonal) is solved by damped Newton on a shooting residual;
the residual dimension equals the diagonal parameter dimension, so the
finite-difference Jacobians stay small.  Batched initial conditions share
one fixed-step RK4 sweep, which keeps multistart scans cheap: all seeds ride
each Newton sweep, a seed that takes the full step costs one sweep per
iteration (its trial point and the probes of its next Jacobian ride
together), and damping step lengths are tried several to a sweep.  A
converged seed's path is the trajectory that the sweep accepting its final
iterate kept; only seeds whose final step came from a damping rung get
their paths from one more batched sweep.

The periodic delay solve is Newton on midpoint collocation with a sparse
forward-difference Jacobian.  Each collocation row reads a few nodes, which
the descriptor's delay maps fix; the node columns are grouped after
Curtis, Powell and Reid (1974) so that one residual sweep per group (a
handful, independent of the node count) gives every entry, and
scipy.sparse.linalg.splu factors the result.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import LevelStructure, build_level, embed_diagonal_params
from .transforms import DiscreteCurve, TransformChain, phi_chain
from .hamiltonians import vector_field
from .delaygen import DelayEquationDescriptor, read_times, rhs_eval


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
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"newton max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("tol", "fd_step", "min_damping", "cond_limit"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"newton {name} must be finite and positive, got {value!r}")
        if self.min_damping > 1:
            raise ValueError(f"newton min_damping must be at most 1 (the full step), got {self.min_damping!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform multistart seed grid over the diagonal parameters."""

    points_per_dim: int = 8
    bounds: tuple | None = None  # ((lo, hi), ...) per coordinate; required on the plane

    def __post_init__(self):
        if self.points_per_dim < 1:
            raise ValueError(f"need at least one grid point per parameter, got {self.points_per_dim}")


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
        if self.members:
            out["max_residual"] = max(m.residual_norm for m in self.members)
            conds = [m.jac_cond for m in self.members]
            out["jac_cond_range"] = [min(conds), max(conds)]
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, default=float)


# ---------------------------------------------------------------------------
# integration


def _rk4(field, z0: np.ndarray, n_steps: int, path: np.ndarray | None = None) -> np.ndarray:
    """Classical RK4 over [0, 1]; returns the end point.  Given a buffer of
    shape (n_steps + 1, k, *z0.shape[1:]), it also keeps the trajectory of
    the first k rows there, one copy per step."""
    h = 1.0 / n_steps
    z = np.array(z0, dtype=float)
    if path is not None:
        keep = path.shape[1]
        path[0] = z[:keep]
    for i in range(n_steps):
        t = i * h
        k1 = field(z, t)
        k2 = field(z + 0.5 * h * k1, t + 0.5 * h)
        k3 = field(z + 0.5 * h * k2, t + 0.5 * h)
        k4 = field(z + h * k3, t + h)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if path is not None:
            path[i + 1] = z[:keep]
    return z


def integrate(ham, level: LevelStructure, z0, cfg: IntegratorConfig = IntegratorConfig()):
    """RK4 trajectory of z' = X_K(z, t) over [0, 1].

    z0 of shape (copies, dim) gives one DiscreteCurve; a batch of shape
    (B, copies, dim) gives a list of B curves, one per row, from one sweep.
    """
    z0 = np.asarray(z0, dtype=float)
    batch = z0.reshape(-1, *z0.shape[-2:])
    traj = np.empty((cfg.n_steps + 1,) + batch.shape)
    _rk4(lambda z, t: vector_field(ham, level, z, t), batch, cfg.n_steps, traj)
    curves = _curves(level, traj)
    return curves[0] if z0.ndim == 2 else curves


def _curves(level: LevelStructure, traj: np.ndarray) -> list:
    """One normalized DiscreteCurve per row of an RK4 trajectory
    (n_steps + 1, B, copies, dim); raises FloatingPointError if it overflowed."""
    if not np.all(np.isfinite(traj)):
        raise FloatingPointError("trajectory overflowed")
    rows = np.ascontiguousarray(np.moveaxis(level.space.normalize(traj), 1, 0))
    return [DiscreteCurve(level.space, level.level, samples, False) for samples in rows]


def _accepted_paths(ham, level: LevelStructure, rows, z0, stored: list, cfg: IntegratorConfig) -> list:
    """One curve per Newton row in rows, z0 holding their start points
    (len(rows), copies, dim): the stored trajectories, (seeds, traj) pairs
    with traj[:, i] from seeds[i], and one integrate sweep for the others.
    A row's trajectory does not depend on its batch, so both are the curve
    integrate gives the row alone."""
    curves = {}
    for seeds, traj in stored:
        curves.update(zip(seeds.tolist(), _curves(level, traj)))
    redo = np.array([i not in curves for i in rows.tolist()], dtype=bool)
    if np.any(redo):
        curves.update(zip(rows[redo].tolist(), integrate(ham, level, z0[redo], cfg)))
    return [curves[i] for i in rows.tolist()]


# ---------------------------------------------------------------------------
# chord shooting


def _flat_dim(level: LevelStructure) -> int:
    return 2 ** (level.level - 1) * level.space.dim


def shoot_residual(ham, level: LevelStructure, params, cfg: IntegratorConfig = IntegratorConfig(), path=None):
    """Wrapped endpoint mismatches over the end-diagonal pairs.

    params has shape (..., 2^{n-1}, dim); the residual has the same shape,
    one row per end-matching pair, so the shooting system is square.  Given
    a buffer path of shape (n_steps + 1, k, copies, dim), the sweep also
    keeps the trajectories of the first k rows there.
    """
    params = np.asarray(params, dtype=float)
    z0 = embed_diagonal_params(level, 0, params)
    zT = _rk4(lambda z, t: vector_field(ham, level, z, t), z0, cfg.n_steps, path)
    out = np.empty_like(params)
    for i, (a, b) in enumerate(level.matching1):
        out[..., i, :] = level.space.wrapped_difference(zT[..., a, :], zT[..., b, :])
    return out


def _wrap_params(space, flat: np.ndarray) -> np.ndarray:
    """Newton iterates on the torus are kept in [0, 1) by np.mod, not by
    PhaseSpace.normalize, whose exact-1.0 guard would move some iterates."""
    if space.topology == "torus":
        return np.mod(flat, 1.0)
    return flat


_RUNNING, _CONVERGED, _SINGULAR, _STUCK, _DIVERGED = 0, 1, 2, 3, 4

# damping rungs lambda = 2^-k that seeds rejecting the full Newton step try
# per residual sweep; the default min_damping 2^-20 allows 20 rungs, so a
# default run tries them all in one sweep
DAMPING_LADDER = 20


def _fd_probes(p: np.ndarray, h: float) -> np.ndarray:
    """The 2P central-difference probe rows around every row of p, seed by seed."""
    dim = p.shape[1]
    eye = np.eye(dim)
    return np.concatenate([p[:, None, :] + h * eye, p[:, None, :] - h * eye], axis=1).reshape(-1, dim)


def _fd_difference(rr: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians from the residuals at the _fd_probes rows."""
    dim = rr.shape[1]
    rr = rr.reshape(-1, 2 * dim, dim)
    return (rr[:, :dim, :] - rr[:, dim:, :]).transpose(0, 2, 1) / (2 * h)


def _resid_with_jacobians(resid_fn, p: np.ndarray, h: float, path: np.ndarray):
    """Residuals at the rows of p and the Jacobians there, from one sweep
    that keeps the trajectories of the rows of p in path."""
    rr = resid_fn(np.concatenate([p, _fd_probes(p, h)]), path)
    return rr[: len(p)], _fd_difference(rr[len(p) :], h)


def _newton_batch(resid_fn, wrap_fn, seeds: np.ndarray, newton: NewtonConfig, row_path: tuple):
    """Damped Newton on a batch of square systems sharing batched residual sweeps.

    resid_fn(rows, path=None) maps (B, P) parameter rows to (B, P) residual
    rows; given a buffer path of shape (row_path[0], k, *row_path[1:]), its
    sweep also keeps the trajectories of the first k rows there.  The first
    sweep evaluates every seed with its 2P central-difference probes.  Each
    iteration then makes one trial sweep: the full step (lambda = 1) for
    every running seed, together with the probes around its wrapped trial
    point, so a seed that takes the full step has its next Jacobian already.
    Seeds that reject the full step try the damping rungs lambda = 2^-k
    (k >= 1, while 2^-k >= min_damping) DAMPING_LADDER at a time, one sweep
    per block, and take their first rung that lowers the residual norm;
    only they need a separate Jacobian sweep in the next iteration.  A row's
    residual does not depend on its batch, so every iterate, status and
    condition estimate is the one the sequential halving loop of a scalar
    solver gives.  The first sweep and every full-step sweep keep the
    trajectories of their value rows; of those, only the trajectories of
    seeds that converge at the iterate the sweep gave them are stored, so a
    seed converging on a full step comes with its own path.  Rung sweeps keep
    none.  Returns final parameters, residuals, per-seed status, Jacobian
    condition estimates, and the stored trajectories as (seeds, traj) pairs,
    traj of shape (row_path[0], len(seeds), *row_path[1:]).  A seed whose
    residual or Jacobian is not finite is marked diverged and leaves the
    iteration.
    """
    h = newton.fd_step
    rungs = np.ldexp(1.0, -np.arange(1, 1075))  # down to 2^-1074, below any positive min_damping
    rungs = rungs[rungs >= newton.min_damping]
    # diverging seeds overflow on their way to the 'diverged' status; the
    # status is the report, so numpy's warnings on them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array(seeds, dtype=float)
        dim = p.shape[1]
        paths = np.empty((row_path[0], len(p)) + row_path[1:])
        r, jac = _resid_with_jacobians(resid_fn, p, h, paths)
        has_jac = np.ones(len(p), dtype=bool)  # jac[i] is the Jacobian at p[i]
        status = np.full(len(p), _RUNNING, dtype=int)
        conds = np.full(len(p), np.nan)
        status[np.max(np.abs(r), axis=1) <= newton.tol] = _CONVERGED
        status[~np.all(np.isfinite(r), axis=1)] = _DIVERGED
        settled = np.flatnonzero(status == _CONVERGED)
        stored = [(settled, paths[:, settled])]  # (seeds, their final trajectories)
        del paths
        for _ in range(newton.max_iter):
            active = np.flatnonzero(status == _RUNNING)
            if len(active) == 0:
                break
            stale = active[~has_jac[active]]
            if len(stale):
                jac[stale] = _fd_difference(resid_fn(_fd_probes(p[stale], h)), h)
            jac_a = jac[active]
            finite = np.all(np.isfinite(jac_a), axis=(1, 2))
            status[active[~finite]] = _DIVERGED
            active, jac_a = active[finite], jac_a[finite]
            conds[active] = np.linalg.cond(jac_a)
            solvable = np.isfinite(conds[active]) & (conds[active] <= newton.cond_limit)
            status[active[~solvable]] = _SINGULAR
            active, jac_a = active[solvable], jac_a[solvable]
            step_rows, solved = _solve_stack(jac_a, r[active])
            status[active[~solved]] = _SINGULAR
            active, step_rows = active[solved], step_rows[solved]
            if len(active) == 0:
                break
            base_norm = np.linalg.norm(r[active], axis=1)
            trials = wrap_fn(p[active] - step_rows)
            paths = np.empty((row_path[0], len(trials)) + row_path[1:])
            r_try, jac_try = _resid_with_jacobians(resid_fn, trials, h, paths)
            better = np.linalg.norm(r_try, axis=1) < base_norm
            took = active[better]
            p[took], r[took], jac[took] = trials[better], r_try[better], jac_try[better]
            settled = better & (np.max(np.abs(r_try), axis=1) <= newton.tol)
            stored.append((active[settled], paths[:, settled]))
            del paths
            has_jac[active] = better
            pending = np.flatnonzero(~better)  # positions in active still looking for a step
            for lo in range(0, len(rungs), DAMPING_LADDER):
                if len(pending) == 0:
                    break
                lam = rungs[lo : lo + DAMPING_LADDER, None, None]
                trials = wrap_fn(p[active[pending]] - lam * step_rows[pending]).reshape(-1, dim)
                r_try = resid_fn(trials)
                better = np.linalg.norm(r_try, axis=1).reshape(len(lam), -1) < base_norm[pending]
                hit = np.any(better, axis=0)
                pick = np.argmax(better, axis=0)[hit] * len(pending) + np.flatnonzero(hit)
                took = active[pending[hit]]
                p[took], r[took] = trials[pick], r_try[pick]
                pending = pending[~hit]
            status[active[pending]] = _STUCK
            done = np.max(np.abs(r), axis=1) <= newton.tol
            status[(status == _RUNNING) & done] = _CONVERGED
        status[status == _RUNNING] = _STUCK
        # condition estimates for seeds that converged at their seed point,
        # from the Jacobians of the first sweep
        fresh = np.flatnonzero((status == _CONVERGED) & ~np.isfinite(conds))
        fresh = fresh[np.all(np.isfinite(jac[fresh]), axis=(1, 2))]
        if len(fresh):
            conds[fresh] = np.linalg.cond(jac[fresh])
        return p, r, status, conds, stored


def _solve_stack(jac: np.ndarray, rhs: np.ndarray):
    """Newton steps for a stack of square systems from one stacked solve, and
    which rows solved.  A stacked solve raises if any matrix is singular;
    then the rows are solved one by one to find the failing ones."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], np.ones(len(jac), dtype=bool)
    except np.linalg.LinAlgError:
        steps, solved = np.zeros_like(rhs), np.ones(len(jac), dtype=bool)
        for i in range(len(jac)):
            try:
                steps[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return steps, solved


def _solve_seeds(ham, level: LevelStructure, seeds: np.ndarray, newton: NewtonConfig, integ: IntegratorConfig) -> list:
    """The one chord shooting path: batched Newton on the shooting residual
    from every seed row; each converged seed's path is the trajectory of
    the sweep that accepted its final iterate, or for a final iterate from a
    damping rung, a row of one integrate sweep.  Returns a Chord or
    SolveFailure per seed."""
    shape = (2 ** (level.level - 1), level.space.dim)

    def resid(flat_batch, path=None):
        batch = flat_batch.reshape(flat_batch.shape[0], *shape)
        return shoot_residual(ham, level, batch, integ, path).reshape(flat_batch.shape[0], -1)

    row_path = (integ.n_steps + 1, level.copies, level.space.dim)
    wrap = partial(_wrap_params, level.space)
    ps, rs, status, conds, stored = _newton_batch(resid, wrap, seeds, newton, row_path)
    params = ps.reshape(len(ps), *shape)
    converged = np.flatnonzero(status == _CONVERGED)
    z0 = embed_diagonal_params(level, 0, params[converged])
    paths = iter(_accepted_paths(ham, level, converged, z0, stored, integ))
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
    kept_paths = np.empty((0, integ.n_steps + 1, level.copies, level.space.dim))
    for c in chords:
        if np.all(level.space.distances(c.path.samples, kept_paths) > DEDUP_TOL):
            kept_paths = np.concatenate([kept_paths, c.path.samples[None]])
            kept.append(c)
    singular_fraction = failures["singular-jacobian"] / max(len(seeds), 1)
    separations = [level.space.distances(kept_paths[i], kept_paths[i + 1 :]) for i in range(len(kept) - 1)]
    min_separation = float(np.concatenate(separations).min()) if separations else math.inf
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
    seg = loop.space.unwrap(loop.samples[k0 : k1 + 1, 0, :])
    m = k1 - k0
    right = (-3 * seg[1 : m - 1] + 4 * seg[2:m] - seg[3 : m + 1]) / (2 * h)
    left = (3 * seg[m - 1] - 4 * seg[m - 2] + seg[m - 3]) / (2 * h)
    return np.vstack([right, left])


def stencil_segments(d: DelayEquationDescriptor, n: int) -> list:
    """First and last node of every segment on an n-interval loop grid.

    Raises ValueError if a breakpoint misses the grid or a segment has fewer
    than the 3 intervals the one-sided derivative stencils need.
    """
    nodes = d.chain.table.nodes(n)  # the segments tile [0, 1] in this order
    segments = list(zip(nodes, nodes[1:]))
    for k0, k1 in segments:
        if k1 - k0 < 3:
            raise ValueError(f"need at least 3 intervals per segment for the stencils, a grid of {n} gives {k1 - k0}")
    return segments


def delay_residual(d: DelayEquationDescriptor, loop: DiscreteCurve) -> float:
    """Max mismatch between one-sided loop derivatives and the symbolic RHS,
    over all off-breakpoint grid nodes."""
    n = loop.n_intervals
    segments = stencil_segments(d, n)
    ks = np.concatenate([np.arange(k0 + 1, k1) for k0, k1 in segments])
    deriv = np.vstack([_one_sided_derivatives(loop, k0, k1) for k0, k1 in segments])
    return float(np.max(np.abs(deriv - rhs_eval(d, loop, ks / n))))


# ---------------------------------------------------------------------------
# independent periodic delay solver


def _cell(t, n: int):
    """Interval index and fraction of periodic times t on n uniform nodes."""
    pos = np.mod(np.atleast_1d(np.asarray(t, float)), 1.0) * n
    return np.floor(pos).astype(int) % n, pos - np.floor(pos)


class _LinearLoopInterpolant:
    """Periodic piecewise-linear interpolant over loop nodes (torus-aware)."""

    def __init__(self, nodes: np.ndarray, space):
        self.nodes = nodes  # (N, dim), node k at time k/N
        self.space = space
        self.n = nodes.shape[0]

    def evaluate(self, t):
        k, frac = _cell(t, self.n)
        a = self.nodes[k]
        step = self.space.wrapped_difference(self.nodes[(k + 1) % self.n], a)
        return (a + frac[:, None] * step)[:, None, :]


def _colour_columns(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Greedy Curtis-Powell-Reid colouring of n column blocks, given the
    (row block, column block) pairs of a sparsity pattern: blocks of one
    colour feed no common row block, so one difference sweep serves them all."""
    order = np.lexsort((rows, cols))
    readers = np.split(rows[order], np.cumsum(np.bincount(cols, minlength=n))[:-1])
    colour = np.empty(n, dtype=int)
    fed: list[np.ndarray] = []  # per colour, the row blocks its columns feed
    for j, rs in enumerate(readers):
        c = next((c for c, mask in enumerate(fed) if not mask[rs].any()), len(fed))
        if c == len(fed):
            fed.append(np.zeros(n, dtype=bool))
        fed[c][rs] = True
        colour[j] = c
    return colour


class _PeriodicCollocation:
    """Midpoint collocation of the periodic delay system on n nodes, and its
    column-grouped forward-difference Jacobian.

    Row block k, (v_{k+1} - v_k)/h - rhs(t_{k+1/2}), reads only a few node
    blocks: k, k+1, and the two interpolation neighbours of every read of
    rhs_eval at t_{k+1/2}.  The pattern comes from read_times at the
    midpoints, the read rule rhs_eval uses, so it holds for affine and spline
    chains alike.  Node blocks are coloured so that no two of one colour feed
    a common row block; each (colour, component) group then costs one
    residual sweep, and since a row reads only its pattern, every entry is
    bitwise the dense per-column difference.
    """

    def __init__(self, d: DelayEquationDescriptor, space, n: int):
        self.d, self.space, self.n, self.dim = d, space, n, space.dim
        self.h = 1.0 / n
        self.mids = (np.arange(n) + 0.5) * self.h
        rows, cols = self._pattern()
        colour = _colour_columns(rows, cols, n)
        dim, comp = self.dim, np.arange(self.dim)
        self.groups = [np.flatnonzero(colour == c) * dim + b for c in range(colour.max() + 1) for b in range(dim)]
        # scalar entry (k*dim + a, j*dim + b) is row k*dim + a of group colour[j]*dim + b
        shape = (len(rows), dim, dim)
        self.entry_rows = np.broadcast_to(rows[:, None, None] * dim + comp[:, None], shape).ravel()
        self.entry_cols = np.broadcast_to(cols[:, None, None] * dim + comp, shape).ravel()
        self.entry_groups = np.broadcast_to(colour[cols][:, None, None] * dim + comp, shape).ravel()

    def _pattern(self):
        """(row block, node block) pairs the residual reads, unique, row-major."""
        n = self.n
        node = _cell(read_times(self.d, self.mids)[0], n)[0]  # column 0 gives blocks k and k+1
        key = np.unique(np.arange(n)[:, None] * n + np.hstack([node, (node + 1) % n]))
        return key // n, key % n

    def resid(self, flat: np.ndarray) -> np.ndarray:
        nodes = flat.reshape(self.n, self.dim)
        f = rhs_eval(self.d, _LinearLoopInterpolant(nodes, self.space), self.mids)
        du = self.space.wrapped_difference(nodes[(np.arange(self.n) + 1) % self.n], nodes)
        return (du / self.h - f).reshape(-1)

    def jacobian(self, u: np.ndarray, r: np.ndarray, fd: float):
        """Forward differences at u (residual r), one sweep per group, as a
        scipy.sparse CSC matrix."""
        from scipy import sparse

        diffs = np.empty((len(self.groups), r.size))
        for g, idx in enumerate(self.groups):
            up = u.copy()
            up[idx] += fd
            diffs[g] = (self.resid(up) - r) / fd
        data = diffs[self.entry_groups, self.entry_rows]
        return sparse.csc_matrix((data, (self.entry_rows, self.entry_cols)), shape=(u.size, u.size))


def solve_periodic_delay(
    d: DelayEquationDescriptor,
    seed: DiscreteCurve,
    newton: NewtonConfig = NewtonConfig(tol=1e-9),
):
    """Newton on midpoint collocation of the periodic delay system.

    Unknowns are the N loop nodes; each interval contributes the equation
    (v_{k+1} - v_k)/h = rhs(t_{k+1/2}) with delayed reads through a periodic
    linear interpolant, matching the collocation order.  The Jacobian is a
    sparse forward-difference one, built from one residual sweep per column
    group of _PeriodicCollocation (a few, however large N is) and factored
    by scipy's splu.  A non-finite residual or Jacobian ends as "diverged",
    an exactly singular factor as "singular-jacobian".
    """
    from scipy.sparse.linalg import splu

    n = seed.n_intervals
    space = seed.space
    try:
        d.chain.table.nodes(n)
    except ValueError as exc:
        return SolveFailure("grid-misaligned", detail=str(exc))
    colloc = _PeriodicCollocation(d, space, n)
    u = seed.samples[:n, 0, :].reshape(-1).copy()
    r = colloc.resid(u)
    converged = np.max(np.abs(r)) <= newton.tol
    for _ in range(newton.max_iter):
        if converged:
            break
        jac = colloc.jacobian(u, r, newton.fd_step)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac.data))):
            return SolveFailure("diverged", float(np.max(np.abs(r))), "non-finite residual or Jacobian")
        try:
            lu = splu(jac)
        except RuntimeError:  # "Factor is exactly singular"
            return SolveFailure("singular-jacobian", float(np.max(np.abs(r))))
        step = lu.solve(r)
        lam = 1.0
        r_norm = np.linalg.norm(r)
        while lam >= newton.min_damping:
            u_try = _wrap_params(space, u - lam * step)
            r_try = colloc.resid(u_try)
            if np.linalg.norm(r_try) < r_norm:
                u, r = u_try, r_try
                break
            lam *= 0.5
        else:
            return SolveFailure("no-convergence", float(np.max(np.abs(r))), "damping exhausted")
        converged = np.max(np.abs(r)) <= newton.tol
    if not converged:
        return SolveFailure("no-convergence", float(np.max(np.abs(r))), "iteration cap")
    nodes = u.reshape(n, space.dim)
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

    def displacement(z, path=None):
        zT = _rk4(lambda w, t: vector_field(ham, level0, w, t), z, integ.n_steps, path)
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

    def resid(flat_batch, path=None):
        return displacement(flat_batch[:, None, :], path).reshape(flat_batch.shape[0], -1)

    row_path = (integ.n_steps + 1, 1, space.dim)
    ps, rs, status, conds, stored = _newton_batch(resid, partial(_wrap_params, space), seeds, newton, row_path)
    converged = np.flatnonzero(status == _CONVERGED)
    paths = _accepted_paths(ham, level0, converged, ps[converged, None, :], stored, integ)
    found = [
        FixedPoint(ps[i], float(np.max(np.abs(rs[i]))), float(conds[i]), DiscreteCurve(space, 0, path.samples, True))
        for i, path in zip(converged, paths)
    ]
    found.sort(key=lambda fp: tuple(fp.point))
    kept: list[FixedPoint] = []
    for fp in found:
        if all(space.distance(fp.point, k.point) > DEDUP_TOL for k in kept):
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
