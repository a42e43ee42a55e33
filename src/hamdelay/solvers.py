"""Numerical engines: flow integration, chord shooting, pullback, and the
independent periodic delay-orbit solver.

Chords (start on the matched start diagonal, end on the level diagonal) are
found by damped Newton on a square shooting residual from many seeds at
once: the seeds share batch-last RK4 sweeps, one compiled-kernel call per
stage, and no row's values depend on its batch.  Narrow level-1 scans are
solved by multiple shooting in time slices instead (_SlicedShooting).

The periodic delay solve is Newton on midpoint collocation with a sparse
forward-difference Jacobian, whose columns are grouped after Curtis, Powell
and Reid (1974) so that a handful of residual sweeps, however many nodes,
give every entry; scipy.sparse.linalg.splu factors it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import LevelStructure, embed_diagonal_params
from .transforms import DiscreteCurve, TransformChain, phi_chain
from .hamiltonians import _finite, _integer
from .hamiltonians import vector_field  # noqa: F401 (perfbench/tracing.py patches it here)
from .delaygen import DelayEquationDescriptor, rhs_eval, rhs_plan


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


# the finite-difference step of every Newton Jacobian, and the condition
# number above which a Newton matrix counts as singular and a solution as
# degenerate
FD_STEP = 1e-6
COND_LIMIT = 1e12


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 50
    tol: float = 1e-10
    min_damping: float = 2.0**-20

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "newton.max_iter", 1))
        for name in ("tol", "min_damping"):
            if not _finite(getattr(self, name), f"newton.{name}") > 0:
                raise ValueError(f"newton.{name} must be > 0, got {getattr(self, name)!r}")
        if self.min_damping > 1:
            raise ValueError(f"newton.min_damping must be at most 1 (the full step), got {self.min_damping!r}")


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
        return not np.isfinite(self.jac_cond) or self.jac_cond > COND_LIMIT


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


def _stage(ham, level: LevelStructure):
    """The RK4 stage of the signed field of ham on level: its compiled
    program and the binder of that program's field kernel for the level's
    signs, rows -> kernel bound to blocks of that many rows."""
    if ham.level != level.level:
        raise ValueError("Hamiltonian level does not match the level structure")
    prog = ham._program(level.space.dim)
    return prog, partial(prog.stage, level.sign_vector)


# Stage times one weight table of an RK4 sweep holds at most: longer sweeps
# tabulate their stage times in chunks of whole steps.
TABLE_SIZE = 2**14


def _rk4(stage, z0: np.ndarray, n_steps: int, path: np.ndarray | None = None, start=0, steps=None) -> np.ndarray:
    """Classical RK4 over [0, 1] in n_steps steps of the field of a _stage;
    returns the end point.  Given a buffer of shape (n_steps + 1, k,
    *z0.shape[1:]), it also keeps the trajectory of the first k rows there.
    Given per-row start steps (an integer array over the rows of z0) and a
    step count, row b takes the steps start[b] ... start[b] + steps - 1 of
    that grid instead.  The weights come from weight tables with one column
    per (step, stage time, distinct start step), TABLE_SIZE columns at most;
    a row reads its start step's columns.  The program keeps the last table
    built, which the sweeps of one Newton solve share.  Blocks of at most
    prog.block rows are swept batch-last.  Each block binds the kernel of
    its row count to four stages once per sweep, z -> k1, u -> k2, u -> k3
    and u -> k4, in buffers allocated once per sweep; each stage ends in its
    stage sum, u = z + (h / 2) k or z + h k, the last in the step sum z +=
    (h / 6) (k1 + 2 k2 + 2 k3 + k4), each with the operands and in the
    rounding order of those expressions.  A step is four stage calls."""
    prog, bind = stage
    h = 1.0 / n_steps
    # the stage sums' factors as 0-d operands: numpy converts a float on every call
    full, half, sixth, two = (np.array(c) for c in (h, 0.5 * h, h / 6.0, 2.0))
    z0 = np.asarray(z0, dtype=float)
    batch = z0.reshape(-1, *z0.shape[-2:])
    if not len(batch):
        return batch.reshape(z0.shape).copy()
    keep = 0 if path is None else path.shape[1]
    first = np.flatnonzero(np.bincount(np.ravel(start)))  # the distinct start steps
    col = np.searchsorted(first, np.ravel(start))  # each row's among them
    count = n_steps if steps is None else steps
    span = max(1, TABLE_SIZE // (3 * len(first)))  # steps per table
    blocks = range(0, len(batch), prog.block)
    zs = [batch[lo : lo + prog.block].transpose(1, 2, 0).copy() for lo in blocks]
    bound = {}  # per block row count: the kernel, k1 .. k4, the stage point and the step sum
    stages = []  # per block: its four stages
    for z in zs:
        if z.shape[-1] not in bound:
            bound[z.shape[-1]] = bind(z.shape[-1]), *(np.empty(z.shape) for _ in range(6))
        kernel, k1, k2, k3, k4, u, acc = bound[z.shape[-1]]
        step_sum = (
            (np.multiply, k2, two, acc), (np.add, k1, acc, acc), (np.multiply, k3, two, u), (np.add, acc, u, acc),
            (np.add, acc, k4, acc), (np.multiply, acc, sixth, acc), (np.add, z, acc, z),
        )
        stages.append((
            kernel.bind(z, k1, ((np.multiply, k1, half, u), (np.add, z, u, u))),
            kernel.bind(u, k2, ((np.multiply, k2, half, u), (np.add, z, u, u))),
            kernel.bind(u, k3, ((np.multiply, k3, full, u), (np.add, z, u, u))),
            kernel.bind(u, k4, step_sum),
        ))
    if keep:
        path[0] = batch[:keep]
    for i0 in range(0, count, span):
        i1 = min(i0 + span, count)
        t = (first + np.arange(i0, i1)[:, None]) * h
        times = np.stack([t, t + 0.5 * h, t + h], axis=1).ravel()
        if prog.sweep_table[0] != times.tobytes():
            prog.sweep_table = (times.tobytes(), prog.table(times))
        w, scale = prog.sweep_table[1]
        columns = None
        if len(first) == 1:  # one column for all rows
            columns = [(w[..., j : j + 1], scale[..., j : j + 1]) for j in range(len(times))]
        for b, lo in enumerate(blocks):
            s1, s2, s3, s4 = stages[b]
            kept = max(0, min(lo + prog.block, keep) - lo)  # rows of this block the path keeps
            if kept:
                rows, dst = zs[b][..., :kept].transpose(2, 0, 1), path[:, lo : lo + kept]
            cols = col[lo : lo + prog.block]

            def weights(j):
                return w.take(j * len(first) + cols, axis=2), scale.take(j * len(first) + cols, axis=2)

            for i in range(i0, i1):
                j = 3 * (i - i0)
                if columns is None:
                    at_t, at_mid, at_end = weights(j), weights(j + 1), weights(j + 2)
                else:
                    at_t, at_mid, at_end = columns[j : j + 3]
                s1(*at_t)
                s2(*at_mid)
                s3(*at_mid)
                s4(*at_end)
                if kept:
                    dst[i + 1] = rows
    return np.concatenate([z.transpose(2, 0, 1) for z in zs]).reshape(z0.shape)


def integrate(ham, level: LevelStructure, z0, cfg: IntegratorConfig = IntegratorConfig()):
    """RK4 trajectory of z' = X_K(z, t) over [0, 1]: one DiscreteCurve for
    z0 of shape (copies, dim), a list of B for (B, copies, dim)."""
    z0 = np.asarray(z0, dtype=float)
    batch = z0.reshape(-1, *z0.shape[-2:])
    traj = np.empty((cfg.n_steps + 1,) + batch.shape)
    _rk4(_stage(ham, level), batch, cfg.n_steps, traj)
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
    """One curve per Newton row in rows, z0 holding their start points: the
    stored (seeds, traj) pairs, traj[:, i] from seeds[i], and one integrate
    sweep for the others.  A row's trajectory does not depend on its batch,
    so both are the curve integrate gives the row alone."""
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
    """Wrapped endpoint mismatches over the end-diagonal pairs: params
    (..., 2^{n-1}, dim) give a residual of the same shape, so the shooting
    system is square.  Given a buffer path (n_steps + 1, k, copies, dim),
    the sweep keeps the trajectories of the first k rows there."""
    z0 = embed_diagonal_params(level, 0, params)
    return _end_residual(level, _rk4(_stage(ham, level), z0, cfg.n_steps, path))


def _end_residual(level: LevelStructure, zT: np.ndarray) -> np.ndarray:
    """Wrapped mismatches (..., 2^{n-1}, dim) of the end-diagonal pairs of
    product states zT (..., copies, dim)."""
    pairs = level.pair_index(1)
    return level.space.wrapped_difference(np.take(zT, pairs[:, 0], axis=-2), np.take(zT, pairs[:, 1], axis=-2))


def _wrap_params(space, flat: np.ndarray) -> np.ndarray:
    """Newton iterates on the torus are kept in [0, 1) by np.mod, not by
    PhaseSpace.normalize, whose exact-1.0 guard would move some iterates."""
    if space.topology == "torus":
        return np.mod(flat, 1.0)
    return flat


def _fd_probes(p: np.ndarray, h: float) -> np.ndarray:
    """The 2P central-difference probe rows around every row of p, seed by seed."""
    dim = p.shape[1]
    eye = np.eye(dim)
    return np.concatenate([p[:, None, :] + h * eye, p[:, None, :] - h * eye], axis=1).reshape(-1, dim)


def _fd_difference(rr: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians (..., m, n) from the outputs (..., 2n, m)
    at the _fd_probes rows around one point each."""
    n = rr.shape[-2] // 2
    return np.swapaxes(rr[..., :n, :] - rr[..., n:, :], -1, -2) / (2 * h)


def _finite_rows(a: np.ndarray) -> np.ndarray:
    """Which rows of a hold only finite numbers."""
    return np.all(np.isfinite(a), axis=tuple(range(1, a.ndim)))


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products a[i] @ v[i]."""
    return (a @ v[..., None])[..., 0]


class _SquareSystem:
    """Newton systems of a square residual resid(rows, path=None) on
    unknowns in space: the central-difference Jacobian is the Newton matrix.
    A sweep keeps the trajectories of its first k rows in a buffer of shape
    (row_path[0], k, *row_path[1:])."""

    def __init__(self, resid, space, row_path: tuple):
        self.resid, self.space, self.row_path = resid, space, row_path

    def linearize(self, x, h: float, path=None, values: bool = True):
        """Residuals at the rows of x (None without values) and the Jacobians
        there, from one sweep that keeps the trajectories of the rows of x
        in path."""
        rows = _fd_probes(x, h)
        if values:
            rows = np.concatenate([x, rows])
        rr = self.resid(rows, path)
        r, rr = (rr[: len(x)], rr[len(x) :]) if values else (None, rr)
        return r, _fd_difference(rr.reshape(len(x), 2 * x.shape[1], -1), h)

    def settled(self, r, jac, tol: float) -> np.ndarray:
        """Which rows have converged: residual within tol."""
        return np.max(np.abs(r), axis=1) <= tol

    def condense(self, jac, r):
        return jac, r

    def expand(self, jac, r, step):
        return step


class _SlicedShooting:
    """The chord shooting problem cut into M time slices: multiple shooting
    (Bock & Plitt 1984; Stoer & Bulirsch, Introduction to Numerical
    Analysis, 7.3.5).

    A seed's unknowns are its diagonal parameters p (P numbers) and the
    slice starts s_1 ... s_{M-1} (D = 2P numbers each); its residual is the
    end-diagonal mismatch of slice M - 1 and the wrapped gaps
    Phi_{k-1}(s_{k-1}) - s_k, s_0 the embedded p.  Slice k takes the steps
    kS ... (k + 1)S - 1 of the n-step grid, S = n/M, and one sweep runs
    every slice of every seed with its central-difference probes.  The
    Jacobian is kept as (M, D, D) blocks G = dPhi_0/dp, A_k = dPhi_k/ds_k
    and E = de/ds_{M-1}, and the Newton system condenses to the P x P matrix
    E A_{M-2} ... A_1 G.  The value rows lead each sweep, so a sweep keeps
    the slice trajectories of its iterates, row_path (S + 1, M, copies, dim)
    per row, which joined lays end to end.
    """

    def __init__(self, ham, level: LevelStructure, integ: IntegratorConfig, slices: int):
        self.ham, self.level, self.integ, self.m = ham, level, integ, slices
        self.space = level.space
        self.steps = integ.n_steps // slices
        self.pairs = (2 ** (level.level - 1), level.space.dim)
        self.state = (level.copies, level.space.dim)
        self.row_path = (self.steps + 1, slices) + self.state
        self.p, self.d = _flat_dim(level), level.copies * level.space.dim
        self.stage = _stage(ham, level)

    def start(self, seeds: np.ndarray) -> np.ndarray:
        """Unknown rows at the seed rows (B, P).  The slice starts are the
        states of one coarse RK4 sweep of M steps, one per slice, from the
        embedded seeds (the coarse propagator of Parareal, Lions, Maday &
        Turinici 2001), so the first sliced sweep has small gaps, which
        Newton closes together with the parameter step."""
        b = len(seeds)
        z0 = embed_diagonal_params(self.level, 0, seeds.reshape(b, *self.pairs))
        traj = np.empty((self.m + 1,) + z0.shape)
        _rk4(self.stage, z0, self.m, traj)
        return np.concatenate([seeds, np.moveaxis(traj[1:-1], 0, 1).reshape(b, -1)], axis=1)

    def _ends(self, starts: np.ndarray, slices: np.ndarray, path=None) -> np.ndarray:
        """End states of slices[i] started at starts[i], from one RK4 sweep
        that keeps the trajectories of the first path.shape[1] rows in path."""
        return _rk4(self.stage, starts, self.integ.n_steps, path, slices * self.steps, self.steps)

    def _starts(self, x: np.ndarray) -> np.ndarray:
        """Start states (B, M, copies, dim) of every slice of the rows of x."""
        p = x[:, : self.p].reshape(len(x), *self.pairs)
        s = x[:, self.p :].reshape(len(x), self.m - 1, *self.state)
        return np.concatenate([embed_diagonal_params(self.level, 0, p)[:, None], s], axis=1)

    def _residuals(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        b = len(starts)
        gaps = self.level.space.wrapped_difference(ends[:, :-1], starts[:, 1:])
        return np.concatenate([_end_residual(self.level, ends[:, -1]).reshape(b, -1), gaps.reshape(b, -1)], axis=1)

    def resid(self, x: np.ndarray) -> np.ndarray:
        """Residual rows at the unknown rows x, from one sweep of M rows each."""
        starts = self._starts(x)
        ends = self._ends(starts.reshape(-1, *self.state), np.tile(np.arange(self.m), len(x)))
        return self._residuals(starts, ends.reshape(starts.shape))

    def linearize(self, x, h: float, path=None, values: bool = True):
        """Residuals at the rows of x (None without values) and their block
        Jacobians, from one sweep.  The value rows come first in it, so given
        a buffer path of shape (S + 1, k, M, copies, dim), it keeps there the
        slice trajectories of the first k rows of x."""
        b, m, p, d = len(x), self.m, self.p, self.d
        first = embed_diagonal_params(self.level, 0, _fd_probes(x[:, :p], h).reshape(-1, *self.pairs))
        rows = [first, _fd_probes(x[:, p:].reshape(-1, d), h).reshape(-1, *self.state)]
        slices = [np.zeros(len(first), dtype=int), np.repeat(np.tile(np.arange(1, m), b), 2 * d)]
        if values:
            starts = self._starts(x)
            rows.insert(0, starts.reshape(-1, *self.state))
            slices.insert(0, np.tile(np.arange(m), b))
        if path is not None:
            path = path.reshape(len(path), -1, *self.state)
        ends = self._ends(np.concatenate(rows), np.concatenate(slices), path)
        r = None
        if values:
            r = self._residuals(starts, ends[: b * m].reshape(starts.shape))
            ends = ends[b * m :]
        later = ends[len(first) :].reshape(b, m - 1, 2 * d, *self.state)
        jac = np.zeros((b, m, d, d))
        jac[:, 0, :, :p] = _fd_difference(ends[: len(first)].reshape(b, 2 * p, d), h)
        jac[:, 1:-1] = _fd_difference(later[:, :-1].reshape(b, m - 2, 2 * d, d), h)
        jac[:, -1, :p] = _fd_difference(_end_residual(self.level, later[:, -1]).reshape(b, 2 * d, p), h)
        return r, jac

    def joined(self, traj: np.ndarray) -> np.ndarray:
        """Trajectories (n + 1, B, copies, dim) on the n-step grid from slice
        trajectories traj (S + 1, B, M, copies, dim): the M slices laid end
        to end, sample kS the slice start s_k, the last sample the end of
        the last slice."""
        laid = np.moveaxis(traj[:-1], 2, 0).reshape(self.integ.n_steps, traj.shape[1], *self.state)
        return np.concatenate([laid, traj[-1:, :, -1]])

    def settled(self, r, jac, tol: float) -> np.ndarray:
        """Which rows have converged: residual within tol, and so is the
        condensed right side, the linear prediction of the end mismatch of
        the unsliced path, which adds up the gaps.  A Jacobian from the
        previous iterate predicts it to first order in the last step."""
        end = np.max(np.abs(self.condense(jac, r)[1]), axis=1)
        return (np.max(np.abs(r), axis=1) <= tol) & (end <= tol)

    def condense(self, jac, r):
        """The condensed P x P Newton matrices and right sides: with
        ds_k = W_k dp + w_k, W_1 = G, w_1 = -g_1, W_{k+1} = A_k W_k and
        w_{k+1} = A_k w_k - g_{k+1}, the end rows read E W dp = e - E w."""
        p = self.p
        gaps = r[:, p:].reshape(len(r), self.m - 1, self.d)
        w_mat, w_vec = jac[:, 0, :, :p], -gaps[:, 0]
        for k in range(1, self.m - 1):
            w_mat, w_vec = jac[:, k] @ w_mat, _mv(jac[:, k], w_vec) - gaps[:, k]
        end = jac[:, -1, :p]
        return end @ w_mat, r[:, :p] - _mv(end, w_vec)

    def expand(self, jac, r, step):
        """Full steps from parameter steps, slice starts by forward recursion."""
        p = self.p
        gaps = r[:, p:].reshape(len(r), self.m - 1, self.d)
        ds = [_mv(jac[:, 0, :, :p], step) - gaps[:, 0]]
        for k in range(1, self.m - 1):
            ds.append(_mv(jac[:, k], ds[-1]) - gaps[:, k])
        return np.concatenate([step] + ds, axis=1)


_RUNNING, _CONVERGED, _SINGULAR, _STUCK, _DIVERGED = 0, 1, 2, 3, 4

# damping rungs lambda = 2^-k that seeds rejecting the full Newton step try
# per residual sweep; the default min_damping 2^-20 allows 20 rungs, so a
# default run tries them all in one sweep
DAMPING_LADDER = 20


def _newton_batch(system, seeds: np.ndarray, newton: NewtonConfig):
    """Damped Newton on a batch of square systems sharing residual sweeps.

    system (a _SquareSystem or _SlicedShooting) gives the residual resid,
    the Newton matrices and steps (linearize, condense, expand, settled),
    the space whose torus wraps the iterates, and row_path, the layout of
    one row's trajectory.  Each iteration makes one sweep with the full step
    of every running seed and the Jacobian probes around its trial point;
    seeds that reject it try the rungs lambda = 2^-k >= min_damping,
    DAMPING_LADDER to a sweep, and take the first that lowers the residual
    norm.  A row's residual does not depend on its batch, so every iterate,
    status and condition estimate is that of the sequential halving loop.
    Value sweeps store the trajectories of the seeds that converge at the
    iterate they gave; rung sweeps keep none.  Returns final unknowns,
    residuals, statuses, condition estimates of the Newton matrices, and the
    stored (seeds, traj) pairs, traj of shape (row_path[0], len(seeds),
    *row_path[1:]).
    """
    rungs = np.ldexp(1.0, -np.arange(1, 1075))  # down to 2^-1074, below any positive min_damping
    rungs = rungs[rungs >= newton.min_damping]

    def buffer(count):
        return np.empty((system.row_path[0], count) + system.row_path[1:])

    # diverging seeds overflow on their way to the 'diverged' status; the
    # status is the report, so numpy's warnings on them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array(seeds, dtype=float)
        dim = p.shape[1]
        paths = buffer(len(p))
        r, jac = system.linearize(p, FD_STEP, paths)
        has_jac = np.ones(len(p), dtype=bool)  # jac[i] is the Jacobian at p[i]
        status = np.full(len(p), _RUNNING, dtype=int)
        conds = np.full(len(p), np.nan)
        status[system.settled(r, jac, newton.tol)] = _CONVERGED
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
                jac[stale] = system.linearize(p[stale], FD_STEP, values=False)[1]
            jac_a = jac[active]
            finite = _finite_rows(jac_a)
            status[active[~finite]] = _DIVERGED
            active, jac_a = active[finite], jac_a[finite]
            mat, rhs = system.condense(jac_a, r[active])
            conds[active] = np.linalg.cond(mat)
            solvable = np.isfinite(conds[active]) & (conds[active] <= COND_LIMIT)
            status[active[~solvable]] = _SINGULAR
            active, jac_a = active[solvable], jac_a[solvable]
            step_rows, solved = _solve_stack(mat[solvable], rhs[solvable])
            status[active[~solved]] = _SINGULAR
            active, jac_a, step_rows = active[solved], jac_a[solved], step_rows[solved]
            if len(active) == 0:
                break
            step_rows = system.expand(jac_a, r[active], step_rows)
            base_norm = np.linalg.norm(r[active], axis=1)
            trials = _wrap_params(system.space, p[active] - step_rows)
            paths = buffer(len(trials))
            r_try, jac_try = system.linearize(trials, FD_STEP, paths)
            better = np.linalg.norm(r_try, axis=1) < base_norm
            took = active[better]
            p[took], r[took], jac[took] = trials[better], r_try[better], jac_try[better]
            settled = better & system.settled(r_try, jac_try, newton.tol)
            stored.append((active[settled], paths[:, settled]))
            del paths
            has_jac[active] = better
            pending = np.flatnonzero(~better)  # positions in active still looking for a step
            for lo in range(0, len(rungs), DAMPING_LADDER):
                if len(pending) == 0:
                    break
                lam = rungs[lo : lo + DAMPING_LADDER, None, None]
                trials = _wrap_params(system.space, p[active[pending]] - lam * step_rows[pending]).reshape(-1, dim)
                r_try = system.resid(trials)
                better = np.linalg.norm(r_try, axis=1).reshape(len(lam), -1) < base_norm[pending]
                hit = np.any(better, axis=0)
                pick = np.argmax(better, axis=0)[hit] * len(pending) + np.flatnonzero(hit)
                took = active[pending[hit]]
                p[took], r[took] = trials[pick], r_try[pick]
                pending = pending[~hit]
            status[active[pending]] = _STUCK
            done = system.settled(r, jac, newton.tol)
            status[(status == _RUNNING) & done] = _CONVERGED
        status[status == _RUNNING] = _STUCK
        # condition estimates for seeds that converged at their seed point,
        # from the Jacobians of the first sweep
        fresh = np.flatnonzero((status == _CONVERGED) & ~np.isfinite(conds))
        fresh = fresh[_finite_rows(jac[fresh])]
        if len(fresh):
            conds[fresh] = np.linalg.cond(system.condense(jac[fresh], r[fresh])[0])
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


# The cost model of _slice_count, frozen: a refit moves the chord that some
# one-seed solves reach (test_slice_rule_pins_one_seed_slice_counts).
STAGE_US = 32.0
SLICED_STAGE_US = 42.0
ROW_US = 0.2
SOLVE_SWEEPS = 5
MIN_SLICE_STEPS = 8
MAX_SLICES = 32
SLICE_GAIN = 2 / 3


def _slice_count(n_steps: int, seeds: int, level: LevelStructure) -> int:
    """Time slices M for a shooting solve of seeds seeds at n_steps steps:
    the power of two up to MAX_SLICES (n_steps / M >= MIN_SLICE_STEPS) with
    the lowest predicted cost, if that is at most SLICE_GAIN of the cost at
    M = 1.  A solve costs SOLVE_SWEEPS sweeps of 4 stages per step over
    seeds (1 + 2P) rows; sliced, over seeds (1 + 2P + (M - 1)(1 + 2D)) rows
    and n_steps / M steps, plus two unsliced sweeps of seeds rows.  Wide
    scans, short grids and levels above 1 stay at M = 1.
    """
    if level.level != 1:
        return 1
    p = _flat_dim(level)
    d = 2 * p

    def sweeps(count, steps, rows, stage_us):
        return count * 4 * steps * (stage_us + ROW_US * rows)

    best, best_cost = 1, SLICE_GAIN * sweeps(SOLVE_SWEEPS, n_steps, seeds * (1 + 2 * p), STAGE_US)
    m = 2
    while m <= MAX_SLICES and n_steps % m == 0 and n_steps // m >= MIN_SLICE_STEPS:
        rows = seeds * (1 + 2 * p + (m - 1) * (1 + 2 * d))
        cost = sweeps(SOLVE_SWEEPS, n_steps // m, rows, SLICED_STAGE_US) + sweeps(2, n_steps, seeds, STAGE_US)
        if cost < best_cost:
            best, best_cost = m, cost
        m *= 2
    return best


def _solve_seeds(ham, level: LevelStructure, seeds: np.ndarray, newton: NewtonConfig, integ: IntegratorConfig) -> list:
    """The one chord shooting path: batched Newton on the shooting residual
    from every seed row, in _slice_count time slices.  A converged seed's
    path is the trajectory of the sweep that accepted its final iterate
    (sliced, the slices laid end to end), or after a damping rung a row of
    one integrate sweep.  A path that misses the end diagonal by more than
    the Newton tolerance, slice-boundary jumps included, makes the seed a
    no-convergence failure.  Returns a Chord or SolveFailure per seed."""
    shape = (2 ** (level.level - 1), level.space.dim)

    def resid(flat_batch, path=None):
        batch = flat_batch.reshape(flat_batch.shape[0], *shape)
        return shoot_residual(ham, level, batch, integ, path).reshape(flat_batch.shape[0], -1)

    slices = _slice_count(integ.n_steps, len(seeds), level)
    if slices == 1:
        system = _SquareSystem(resid, level.space, (integ.n_steps + 1, level.copies, level.space.dim))
        start = seeds
    else:
        system = _SlicedShooting(ham, level, integ, slices)
        with np.errstate(over="ignore", invalid="ignore"):
            start = system.start(seeds)
    xs, rs, status, conds, stored = _newton_batch(system, start, newton)
    if slices > 1:
        stored = [(rows, system.joined(traj)) for rows, traj in stored]
    swept = {i for rows, _ in stored for i in rows.tolist()}
    params = xs[:, : _flat_dim(level)].reshape(len(xs), *shape)
    converged = np.flatnonzero(status == _CONVERGED)
    z0 = embed_diagonal_params(level, 0, params[converged])
    paths = iter(_accepted_paths(ham, level, converged, z0, stored, integ))
    results = []
    for i, (p, r, s, cond) in enumerate(zip(params, rs, status, conds)):
        norm = float(np.max(np.abs(r)))
        if s == _CONVERGED:
            path = next(paths)
            if slices > 1 and i not in swept:
                norm = float(np.max(np.abs(_end_residual(level, path.samples[-1]))))
            if norm <= newton.tol:
                results.append(Chord(p, path, norm, float(cond)))
            else:
                detail = f"{slices}-slice solution's path misses the end diagonal by {norm:.2e}"
                results.append(SolveFailure("no-convergence", norm, detail))
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
    """Damped Newton on the shooting residual from one seed; returns Chord
    or SolveFailure.  It runs the one-seed case of the solve that
    enumerate_chords runs, but one seed is the narrowest scan: at level 1
    from 64 steps on, _slice_count cuts it into time slices (multiple
    shooting), where a grid scan stays unsliced.  Such a sliced solve can
    reach another chord than the same seed in an unsliced scan."""
    p = np.asarray(seed_params, dtype=float).reshape(-1)
    if p.size != _flat_dim(level):
        raise ValueError(f"seed must have {_flat_dim(level)} parameters")
    return _solve_seeds(ham, level, p[None], newton, integ)[0]


def _seed_grid(level: LevelStructure, grid: GridSpec) -> np.ndarray:
    """The k^P points, k = points_per_dim, over the P diagonal parameters in
    meshgrid's "ij" order: row i holds on axis j the j-th base-k digit of i."""
    dim, k = _flat_dim(level), grid.points_per_dim
    if level.space.topology == "torus":
        axes = np.tile(np.linspace(0.0, 1.0, k, endpoint=False), (dim, 1))
    else:
        if grid.bounds is None or len(grid.bounds) != dim:
            raise ValueError("plane enumeration needs explicit bounds per parameter")
        axes = np.array([np.linspace(lo, hi, k) for lo, hi in grid.bounds])
    digits = np.arange(k**dim)[:, None] // k ** np.arange(dim - 1, -1, -1) % k
    return axes[np.arange(dim), digits]


DEDUP_TOL = 1e-5


def _order_key(values) -> tuple:
    """Sort key of a solution: its values rounded to the DEDUP_TOL grid,
    then the raw values as tie-break.  A rounding-level move reorders two
    solutions only if a value crosses a grid boundary; raw tuples swap
    whenever the leading values of two solutions agree to rounding."""
    v = np.ravel(values)
    return tuple(np.round(v / DEDUP_TOL).tolist() + v.tolist())


def _distinct(space, params: np.ndarray, values: np.ndarray) -> list[int]:
    """The distinct set of the solutions found, given their parameters and
    their values stacked along axis 0: in the order of _order_key(params[i]),
    solution i is kept unless values[i] lies within DEDUP_TOL of the value of
    a solution kept before it.  Returns the kept indices in that order."""
    kept: list[int] = []
    for i in sorted(range(len(params)), key=lambda i: _order_key(params[i])):
        if np.all(space.distances(values[i], values[kept]) > DEDUP_TOL):
            kept.append(i)
    return kept


def enumerate_chords(
    ham,
    level: LevelStructure,
    grid: GridSpec = GridSpec(),
    newton: NewtonConfig = NewtonConfig(),
    integ: IntegratorConfig = IntegratorConfig(),
) -> OrbitSet:
    """Multistart shooting over a uniform seed grid; the chords are the
    _distinct set of the solved paths, in the order of their parameters.
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
    paths = np.array([c.path.samples for c in chords])
    order = _distinct(level.space, np.array([c.params for c in chords]), paths)
    kept, kept_paths = [chords[i] for i in order], paths[order]
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


def pullback_chord(chords, chain: TransformChain):
    """Pulls the chord back to a periodic loop; breakpoints are marked.  A
    sequence of chords of one set gives the list of their loops, from one
    phi_chain call over their paths."""
    if isinstance(chords, Chord):
        return phi_chain(chain, chords.path)
    return phi_chain(chain, [c.path for c in chords])


def _one_sided_derivatives(loop: DiscreteCurve, k0: int, k1: int) -> np.ndarray:
    """Second-order one-sided derivatives at interior nodes of [k0, k1], on
    the locally unwrapped samples: right-sided stencils stay inside the
    segment, and the last interior node takes the left-sided one."""
    n = loop.n_intervals
    h = 1.0 / n
    seg = loop.space.unwrap(loop.samples[k0 : k1 + 1, 0, :])
    m = k1 - k0
    right = (-3 * seg[1 : m - 1] + 4 * seg[2:m] - seg[3 : m + 1]) / (2 * h)
    left = (3 * seg[m - 1] - 4 * seg[m - 2] + seg[m - 3]) / (2 * h)
    return np.vstack([right, left])


def stencil_segments(d: DelayEquationDescriptor, n: int) -> list:
    """First and last node of every segment on an n-interval loop grid;
    ValueError if a breakpoint misses the grid or a segment has fewer than
    the 3 intervals the one-sided derivative stencils need."""
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
    (row block, column block) pairs of a sparsity pattern: column j takes
    the lowest colour that feeds none of its row blocks, the lowest bit free
    in the bitmasks of the colours feeding each of them."""
    readers = rows[np.argsort(cols, kind="stable")].tolist()
    used = [0] * n  # per row block, the colours that feed it
    colour = []
    lo = 0
    for hi in np.cumsum(np.bincount(cols, minlength=n)).tolist():
        rs = readers[lo:hi]
        taken = 0
        for r in rs:
            taken |= used[r]
        free = ~taken & (taken + 1)
        for r in rs:
            used[r] |= free
        colour.append(free.bit_length() - 1)
        lo = hi
    return np.array(colour, dtype=int)


class _PeriodicCollocation:
    """Midpoint collocation of the periodic delay system on n nodes, and its
    column-grouped forward-difference Jacobian.

    Row block k, (v_{k+1} - v_k)/h - rhs(t_{k+1/2}), reads node blocks k,
    k+1 and the interpolation neighbours of every read of its rhs plan at
    t_{k+1/2}, for affine and spline chains alike.  Node blocks of one
    colour feed no common row block, so each (colour, component) group costs
    one residual sweep, and every entry is bitwise the dense per-column
    difference.
    """

    def __init__(self, d: DelayEquationDescriptor, space, n: int):
        self.d, self.space, self.n, self.dim = d, space, n, space.dim
        self.h = 1.0 / n
        self.mids = (np.arange(n) + 0.5) * self.h
        self.plan = rhs_plan(d, self.mids, self.dim)
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
        node = _cell(self.plan.reads, n)[0]  # the owning copy's read gives blocks k and k+1
        key = np.unique(np.arange(n)[:, None] * n + np.hstack([node, (node + 1) % n]))
        return key // n, key % n

    def resid(self, flat: np.ndarray) -> np.ndarray:
        nodes = flat.reshape(self.n, self.dim)
        f = rhs_eval(self.d, _LinearLoopInterpolant(nodes, self.space), self.mids, plan=self.plan)
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

    Unknowns are the N loop nodes; delayed reads go through a periodic
    linear interpolant, matching the collocation order.  The sparse Jacobian
    of _PeriodicCollocation is factored by scipy's splu.  A non-finite
    residual or Jacobian ends as "diverged", an exactly singular factor as
    "singular-jacobian".
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
        jac = colloc.jacobian(u, r, FD_STEP)
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
# output formats


def loop_csv_table(loop: DiscreteCurve) -> str:
    """The line table of base-loop CSVs on the loop's grid (see _csv_table)."""
    return _csv_table("t,coord_index,value", [f"{i}," for i in range(loop.space.dim)], loop.times())


def chord_csv_table(curve: DiscreteCurve) -> str:
    """The line table of chord CSVs on the path's grid and copies (see _csv_table)."""
    heads = [f"{j},{i}," for j in range(1, curve.copies + 1) for i in range(curve.space.dim)]
    return _csv_table("t,copy,coord_index,value", heads, curve.times())


def write_loop_csv(path, loop: DiscreteCurve, table: str | None = None) -> None:
    """Base-loop CSV: t,coord_index,value; table, from loop_csv_table, is
    built once for a set of loops on one grid."""
    _write_csv(path, loop_csv_table(loop) if table is None else table, loop.samples[:, 0])


def write_chord_csv(path, chord: Chord, table: str | None = None) -> None:
    """Chord CSV: t,copy,coord_index,value (copies 1-based); table, from
    chord_csv_table, is built once for a set of chords on one grid."""
    curve = chord.path
    _write_csv(path, chord_csv_table(curve) if table is None else table, curve.samples)


def _csv_table(header: str, heads: list, times: np.ndarray) -> str:
    """A CSV file as one format string: the header, then for each time t and
    each head the line t,head,value with a {:.17g} field for the value, t to
    12 significant digits.  Lines end in CR LF, the csv module's terminator;
    no field needs quotes."""
    lines = [header + "\r\n"]
    for t in times.tolist():
        t = f"{t:.12g},"
        lines += [f"{t}{head}{{:.17g}}\r\n" for head in heads]
    return "".join(lines)


def _write_csv(path, table: str, samples: np.ndarray) -> None:
    """Fills the table with the samples' values in C order and writes the
    file in one call."""
    with open(path, "w", newline="") as fh:
        fh.write(table.format(*samples.ravel().tolist()))
