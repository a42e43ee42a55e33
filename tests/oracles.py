"""Straightforward definitions that the tests compare the package against.

The package evaluates every Hamiltonian through its compiled program and
reads matched pairs through one index gather; these are the per-object
forms: spatial parts and factors one at a time, the complex structure J,
central differences of the value, the delay right-hand side by a loop over
segments, terms and factors, the diagonal maps pair by pair, the one-step
transforms Psi and Phi that the chain transforms compose, the per-curve
node mapping, boundary check and pullback Phi^n that the set pullback is
checked against, and the fixed-point scan of the time-1 flow that the
chord counts are checked against.  The test-only inverses and invariants
of the geometry and the time maps live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hamdelay import solvers
from hamdelay.delaygen import DelayEquationDescriptor
from hamdelay.geometry import LevelStructure, build_level
from hamdelay.hamiltonians import FIELD_SIGN, TWO_PI, ConstSpatial, PolySpatial, TrigSpatial
from hamdelay.solvers import COND_LIMIT, DEDUP_TOL, IntegratorConfig, NewtonConfig, OrbitSet
from hamdelay.transforms import (
    BOUNDARY_TOL,
    AffineMap,
    DiscreteCurve,
    ReparamPair,
    TransformChain,
    _image_breakpoints,
    _validate_grid,
)


def spatial_value(s, z):
    z = np.asarray(z, float)
    if isinstance(s, TrigSpatial):
        return s.amp * np.cos(TWO_PI * (z @ np.asarray(s.freq, float)) + s.phase)
    if isinstance(s, PolySpatial):
        out = np.zeros(z.shape[:-1])
        for c, es in s.terms:
            out += c * np.prod(z ** np.asarray(es), axis=-1)
        return out
    assert isinstance(s, ConstSpatial)
    return np.full(z.shape[:-1], s.value_const)


def spatial_grad(s, z):
    z = np.asarray(z, float)
    if isinstance(s, TrigSpatial):
        f = np.asarray(s.freq, float)
        return (-s.amp * TWO_PI * np.sin(TWO_PI * (z @ f) + s.phase))[..., None] * f
    out = np.zeros_like(z)
    if isinstance(s, PolySpatial):
        for c, es in s.terms:
            for i, e in enumerate(es):
                if e == 0:
                    continue
                des = list(es)
                des[i] -= 1
                out[..., i] += c * e * np.prod(z ** np.asarray(des), axis=-1)
    return out


def factor_value(f, z_copy, t):
    return spatial_value(f.spatial, z_copy) * np.asarray(f.time(t))


def factor_grad(f, z_copy, t):
    return spatial_grad(f.spatial, z_copy) * np.asarray(f.time(t))[..., None]


def apply_j(vec):
    """Standard complex structure per copy: (g_x, g_y) -> (-g_y, g_x)."""
    vec = np.asarray(vec, float)
    d = vec.shape[-1] // 2
    out = np.empty_like(vec)
    out[..., :d] = -vec[..., d:]
    out[..., d:] = vec[..., :d]
    return out


def hamiltonian_field(grad):
    """X_H from a gradient: the configured orientation of J grad H."""
    return FIELD_SIGN * apply_j(grad)


def fd_gradient_oracle(ham, level, z, t, h: float = 1e-5):
    """Signed field from central differences of ham.value."""
    z = np.asarray(z, float)
    g = np.zeros_like(z)
    for j in range(z.shape[-2]):
        for i in range(z.shape[-1]):
            zp = z.copy()
            zm = z.copy()
            zp[..., j, i] += h
            zm[..., j, i] -= h
            g[..., j, i] = (ham.value(zp, t) - ham.value(zm, t)) / (2 * h)
    return hamiltonian_field(g) * np.array(level.sign_vector, float)[:, None]


def rhs_eval_oracle(d: DelayEquationDescriptor, loop, t):
    """The delay right-hand side segment by segment, term by term and
    factor by factor: every delay coefficient reads the loop at its own
    delayed time (mod 1), the driver at t."""
    interp = loop.interpolant() if isinstance(loop, DiscreteCurve) else loop
    scalar = np.ndim(t) == 0
    ts = np.mod(np.atleast_1d(np.asarray(t, float)), 1.0)
    los = np.array([float(s.lo) for s in d.segments])
    idx = np.clip(np.searchsorted(los, ts, side="right") - 1, 0, len(d.segments) - 1)
    v = interp.evaluate(ts)[:, 0, :]
    out = np.zeros(v.shape)
    for i, seg in enumerate(d.segments):
        mask = idx == i
        if not np.any(mask):
            continue
        tt = ts[mask]
        theta = np.asarray(seg.theta(tt))
        acc = np.zeros((len(tt), out.shape[-1]))
        for term in seg.terms:
            pref = np.full(len(tt), term.coeff)
            for coeff in term.coefficients:
                delayed = interp.evaluate(np.mod(np.asarray(coeff.delay(tt)), 1.0))[:, 0, :]
                pref = pref * factor_value(coeff.factor, delayed, theta)
            acc += pref[:, None] * hamiltonian_field(factor_grad(term.driver, v[mask], theta))
        out[mask] = np.asarray(seg.rate(tt))[:, None] * acc
    return out[0] if scalar else out


DIAG_TOL = 1e-9


def on_diagonal(level: LevelStructure, which, p, tol: float = DIAG_TOL) -> bool:
    """True iff every matched pair of copies coincides up to tol (sup norm);
    which is 0, 1, or "tot", which compares all copies."""
    p = np.asarray(p, dtype=float)
    if p.shape != (level.copies, level.space.dim):
        raise ValueError(f"expected point of shape {(level.copies, level.space.dim)}")
    pairs = p[level.pair_index(which)]  # (pairs, 2, dim)
    gaps = np.abs(level.space.wrapped_difference(pairs[:, 0], pairs[:, 1])).max(axis=1)
    return not np.any(gaps > tol)


def embed_diagonal_params_oracle(level: LevelStructure, which, params):
    """embed_diagonal_params pair by pair: both copies of matched pair i
    take params[..., i, :]."""
    params = np.asarray(params, dtype=float)
    out = np.empty(params.shape[:-2] + (level.copies, level.space.dim))
    for i, (a, b) in enumerate(level.matching(which)):
        out[..., a, :] = params[..., i, :]
        out[..., b, :] = params[..., i, :]
    return out


def end_residual_oracle(level: LevelStructure, zT):
    """The shooting end residual pair by pair: the wrapped mismatch of each
    end-diagonal pair of the product states zT (..., copies, dim)."""
    out = np.empty(zT.shape[:-2] + (len(level.matching1), zT.shape[-1]))
    for i, (a, b) in enumerate(level.matching1):
        out[..., i, :] = level.space.wrapped_difference(zT[..., a, :], zT[..., b, :])
    return out


def reduce_diagonal_params(level: LevelStructure, which, p, tol: float = DIAG_TOL):
    """Inverse of embed_diagonal_params; rejects points off the diagonal."""
    p = np.asarray(p, dtype=float)
    if not on_diagonal(level, which, p, tol=tol):
        raise ValueError(f"point is not on diagonal {which} at tol {tol}")
    return np.stack([p[a] for a, _ in level.matching(which)])


def union_graph_is_single_cycle(level: LevelStructure) -> bool:
    """Checks that matching0 and matching1 together form one 2^n-cycle."""
    if level.level < 1:
        return False
    copies = level.copies
    adj: list[list[int]] = [[] for _ in range(copies)]
    for a, b in level.matching0 + level.matching1:
        adj[a].append(b)
        adj[b].append(a)
    if any(len(nb) != 2 for nb in adj):
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == copies


def equals_mod1(a: AffineMap, b) -> bool:
    """Whether the exact affine time maps a and b agree mod 1: the same
    slope, and intercepts an integer apart."""
    return isinstance(b, AffineMap) and a.slope == b.slope and (a.intercept - b.intercept).denominator == 1


def seed_grid(level: LevelStructure, grid) -> np.ndarray:
    """The multistart seed grid as np.meshgrid builds it: one axis per
    diagonal parameter, the first varying slowest ("ij" indexing)."""
    dim = 2 ** (level.level - 1) * level.space.dim
    if level.space.topology == "torus":
        axes = [np.linspace(0.0, 1.0, grid.points_per_dim, endpoint=False) for _ in range(dim)]
    else:
        axes = [np.linspace(lo, hi, grid.points_per_dim) for lo, hi in grid.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def map_on_nodes(curve: DiscreteCurve, n_out: int, jobs) -> list:
    """Reads the curve on output nodes for every job (tmap, copy, k0, k1):
    curve_copy(tmap(k/n_out)) for k = k0..k1, one (k1 - k0 + 1, dim) block
    per job, from one array expression and one interpolant call; hits (an
    affine map landing exactly on an input node) copy the stored sample, a
    loop wrapping hits outside [0, n_in]."""
    n_in = curve.n_intervals
    params, sizes, starts, bound, den_max = [], [], [0], 0, 1
    for tmap, copy, k0, k1 in jobs:
        if tmap.is_affine:
            ps, qs = tmap.slope.numerator, tmap.slope.denominator
            pi, qi = tmap.intercept.numerator, tmap.intercept.denominator
            a, b, den = ps * qi, pi * qs * n_out, qs * qi * n_out
            bound = max(bound, abs(a) * max(k1, 1) + abs(b))
            den_max = max(den_max, den)
            params.append((a, b, den, k0 - starts[-1], copy, 1))
        else:
            params.append((0, 0, 1, k0 - starts[-1], copy, 0))
        sizes.append(k1 - k0 + 1)
        starts.append(starts[-1] + sizes[-1])
    dtype = np.int64 if bound * n_in < 2**62 and bound < 2**53 and den_max < 2**53 else object
    a, b, den, shift, copy, affine = np.repeat(np.array(params, dtype=dtype), sizes, axis=0).T
    num = a * (np.arange(starts[-1], dtype=dtype) + shift) + b
    scaled = num * n_in
    node, rem = scaled // den, scaled % den
    is_hit = (rem == 0) & (affine == 1)
    outside = (node < 0) | (node > n_in)
    if curve.is_loop:
        np.remainder(node, n_in, out=node, where=outside)
    else:
        is_hit &= ~outside
    ts = np.asarray(num / den, dtype=float)
    for (tmap, _, k0, k1), lo, hi in zip(jobs, starts, starts[1:]):
        if not tmap.is_affine:
            ts[lo:hi] = tmap(np.linspace(0.0, 1.0, n_out + 1)[k0 : k1 + 1])
    copy = copy.astype(np.intp)
    out = np.empty((starts[-1], curve.space.dim))
    out[is_hit] = curve.samples[node[is_hit].astype(np.intp), copy[is_hit]]
    miss = ~is_hit
    if miss.any():
        out[miss] = curve.space.normalize(curve.interpolant().evaluate(ts[miss], copy[miss]))
    return [out[lo:hi] for lo, hi in zip(starts, starts[1:])]


def check_boundary(curve: DiscreteCurve, tol: float = BOUNDARY_TOL) -> None:
    """The boundary conditions of one curve: a level-0 loop closes, a path
    starts and ends on its diagonals, pair by pair through on_diagonal."""
    space = curve.space
    if curve.level == 0:
        if not curve.is_loop:
            raise ValueError("level-0 curves must be loops")
        gap = space.distance(curve.samples[-1], curve.samples[0])
        if gap > tol:
            raise ValueError(f"loop fails to close: gap {gap:.3e} exceeds tol {tol:.1e}")
        return
    level = build_level(space, curve.level)
    if not on_diagonal(level, 0, curve.samples[0], tol=tol):
        raise ValueError("path start is not on the start diagonal")
    if not on_diagonal(level, 1, curve.samples[-1], tol=tol):
        raise ValueError("path end is not on the end diagonal")


def phi_chain_oracle(chain: TransformChain, path: DiscreteCurve) -> DiscreteCurve:
    """The pullback Phi^n of one path to a loop, segment by segment."""
    if chain.level == 0:
        return path
    if path.level != chain.level:
        raise ValueError("path level does not match the chain")
    check_boundary(path)
    n = path.n_intervals
    table = chain.table
    nodes = table.nodes(n)
    jobs = [(e.theta, e.copy, k0, k1) for e, k0, k1 in zip(table.by_interval(), nodes, nodes[1:])]
    blocks = map_on_nodes(path, n, jobs)
    # a node on a breakpoint reads the later block
    out = np.concatenate([b[:-1] for b in blocks[:-1]] + [blocks[-1]])[:, None, :]
    return DiscreteCurve(path.space, 0, path.space.normalize(out), True, tuple(table.breakpoints()[1:-1]))


def psi_step(pair: ReparamPair, curve: DiscreteCurve) -> DiscreteCurve:
    """One step up: out(t) = (curve(alpha(t)), curve(beta(t)))."""
    check_boundary(curve)
    n = curve.n_intervals
    copies = curve.copies
    jobs = [(pair.alpha, j, 0, n) for j in range(copies)] + [(pair.beta, j, 0, n) for j in range(copies)]
    out = np.stack(map_on_nodes(curve, n, jobs), axis=1)
    pieces = [(0, pair.tau, pair.alpha.inverse()), (pair.tau, 1, pair.beta.inverse())]
    bps = _image_breakpoints(pieces, curve.breakpoints)
    return DiscreteCurve(curve.space, curve.level + 1, curve.space.normalize(out), False, bps)


def phi_step(pair: ReparamPair, curve: DiscreteCurve) -> DiscreteCurve:
    """One step down, gluing the two copy blocks at tau."""
    n = curve.n_intervals
    half = curve.copies // 2
    if curve.level < 1:
        raise ValueError("phi_step needs a curve at level >= 1")
    gap = curve.space.distance(curve.samples[-1, :half], curve.samples[-1, half:])
    if gap > BOUNDARY_TOL:
        raise ValueError(f"endpoint gluing mismatch {gap:.3e} exceeds tol {BOUNDARY_TOL:.1e}")
    (ktau,) = _validate_grid(n, [pair.tau])
    ainv, binv = pair.alpha.inverse(), pair.beta.inverse()
    jobs = [(ainv, j, 0, ktau) for j in range(half)] + [(binv, j + half, ktau, n) for j in range(half)]
    blocks = map_on_nodes(curve, n, jobs)
    # the node at tau reads the later block
    out = np.concatenate([np.stack(blocks[:half], axis=1)[:-1], np.stack(blocks[half:], axis=1)])
    bps = {pair.tau} | set(_image_breakpoints([(0, 1, pair.alpha), (0, 1, pair.beta)], curve.breakpoints))
    bps = tuple(sorted(bps, key=float))
    is_loop = curve.level == 1
    return DiscreteCurve(curve.space, curve.level - 1, curve.space.normalize(out), is_loop, bps)


@dataclass(eq=False)
class FixedPoint:
    point: np.ndarray
    residual_norm: float
    jac_cond: float
    loop: DiscreteCurve | None = None

    @property
    def degenerate(self) -> bool:
        return not np.isfinite(self.jac_cond) or self.jac_cond > COND_LIMIT


def flow_fixed_points(
    ham,
    space,
    grid_n: int = 64,
    newton: NewtonConfig = NewtonConfig(),
    integ: IntegratorConfig = IntegratorConfig(),
) -> OrbitSet:
    """Scans the torus for fixed points of the time-1 flow map of a base
    Hamiltonian, polishing local minima of the displacement with Newton;
    the fixed points are the distinct set of the converged points.  Newton
    is called through the solvers module, so a test that patches
    solvers._newton_batch sees this scan too."""
    if space.topology != "torus":
        raise ValueError("the fixed-point scan needs a compact (torus) base")
    level0 = build_level(space, 0)
    axes = [np.linspace(0.0, 1.0, grid_n, endpoint=False) for _ in range(space.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    stage = solvers._stage(ham, level0)

    def displacement(flat, path=None):
        z = flat[:, None, :]
        return space.wrapped_difference(solvers._rk4(stage, z, integ.n_steps, path), z).reshape(len(flat), -1)

    norms = np.max(np.abs(displacement(pts)), axis=1).reshape([grid_n] * space.dim)
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
    system = solvers._SquareSystem(displacement, space, (integ.n_steps + 1, 1, space.dim))
    ps, rs, status, conds, stored = solvers._newton_batch(system, seeds, newton)
    converged = np.flatnonzero(status == solvers._CONVERGED)
    paths = solvers._accepted_paths(ham, level0, converged, ps[converged, None, :], stored, integ)
    found = [
        FixedPoint(ps[i], float(np.max(np.abs(rs[i]))), float(conds[i]), DiscreteCurve(space, 0, path.samples, True))
        for i, path in zip(converged, paths)
    ]
    kept = [found[i] for i in solvers._distinct(space, ps[converged], ps[converged])]
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
