"""Loop-path transforms, reparametrization chains, and segment tables.

All time bookkeeping lives here.  A chain of (alpha, beta) reparametrization
pairs identifies loops on the base space with paths on the product tower;
the derived segment table assigns each product copy a subinterval of [0,1],
a monotone time map onto chord time, and a positive rate.  Affine
reparametrizations are carried as exact rationals so the piecewise maps of
the induced delay equations come out symbolically exact; tabulated smooth
reparametrizations fall back to monotone splines with bisection inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .geometry import PhaseSpace, build_level, on_diagonal

BOUNDARY_TOL = 1e-6
SPLINE_INVERSE_TOL = 1e-12


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# time maps


@dataclass(frozen=True)
class AffineMap:
    """Exact affine time map t -> slope*t + intercept with rational data."""

    slope: Fraction
    intercept: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "slope", _as_fraction(self.slope))
        object.__setattr__(self, "intercept", _as_fraction(self.intercept))
        if self.slope == 0:
            raise ValueError("time maps must be strictly monotone (slope != 0)")

    @property
    def is_affine(self) -> bool:
        return True

    def __call__(self, t):
        if isinstance(t, Fraction):
            return self.slope * t + self.intercept
        t = np.asarray(t, dtype=float)
        out = float(self.slope) * t + float(self.intercept)
        return float(out) if out.ndim == 0 else out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, float(self.slope))
        return float(self.slope) if out.ndim == 0 else out

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.slope, -self.intercept / self.slope)

    def compose(self, inner):
        """self after inner."""
        if isinstance(inner, AffineMap):
            return AffineMap(self.slope * inner.slope, self.slope * inner.intercept + self.intercept)
        return ComposedMap((self,) + _map_sequence(inner))

    def equals_mod1(self, other) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.slope == other.slope
            and (self.intercept - other.intercept).denominator == 1
        )

    def reduce_intercept_mod1(self) -> "AffineMap":
        return AffineMap(self.slope, self.intercept - math.floor(self.intercept))

    def pretty(self, var: str = "t") -> str:
        s, c = self.slope, self.intercept
        mag = abs(s)
        if mag == 1:
            st = var
        elif mag.denominator == 1:
            st = f"{mag.numerator}{var}"
        elif mag.numerator == 1:
            st = f"{var}/{mag.denominator}"
        else:
            st = f"({format_rational(mag)}){var}"
        if c == 0:
            return st if s > 0 else f"-{st}"
        if s < 0:
            return f"{format_rational(c)} - {st}"
        if c > 0:
            return f"{format_rational(c)} + {st}"
        return f"{st} - {format_rational(-c)}"

    def __str__(self):
        return self.pretty()

    def to_json(self) -> dict:
        return {"slope": format_rational(self.slope), "intercept": format_rational(self.intercept)}


class MonotoneSplineMap:
    """Strictly monotone C^1 map on [0, 1], tabulated at knots."""

    is_affine = False

    def __init__(self, knot_x, knot_y):
        x = np.asarray(knot_x, dtype=float)
        y = np.asarray(knot_y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 3:
            raise ValueError("need matching 1d knot arrays with at least 3 knots")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        dy = np.diff(y)
        if np.all(dy > 0):
            self.direction = 1
        elif np.all(dy < 0):
            self.direction = -1
        else:
            raise ValueError("knot values must be strictly monotone")
        self._x = x
        self._y = y
        self._f = PchipInterpolator(x, y)
        self._df = self._f.derivative()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._f(t)
        return float(out) if out.ndim == 0 else out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = self._df(t)
        return float(out) if out.ndim == 0 else out

    def inverse(self):
        return _BisectionInverse(self)

    def compose(self, inner):
        return ComposedMap((self,) + _map_sequence(inner))

    def to_json(self) -> dict:
        return {"knots": [[float(a), float(b)] for a, b in zip(self._x, self._y)]}


class _BisectionInverse:
    """Inverse of a monotone map on [0, 1], solved by bisection."""

    is_affine = False

    def __init__(self, forward):
        self.forward = forward
        lo, hi = forward(forward._x[0]), forward(forward._x[-1])
        self._range = (min(lo, hi), max(lo, hi))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        vals = np.atleast_1d(t).astype(float)
        a = np.full(vals.shape, self.forward._x[0])
        b = np.full(vals.shape, self.forward._x[-1])
        fa = np.full(vals.shape, self.forward(self.forward._x[0]))
        # bisection on [a, b]; 60 halvings take the bracket below 1e-18
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = np.asarray(self.forward(m))
            left = (fm - vals) * np.sign(fa - vals) > 0
            a = np.where(left, m, a)
            fa = np.where(left, fm, fa)
            b = np.where(left, b, m)
            if np.max(b - a) < SPLINE_INVERSE_TOL:
                break
        out = 0.5 * (a + b)
        return float(out[0]) if scalar else out.reshape(t.shape)

    def deriv(self, t):
        s = self(t)
        out = 1.0 / np.asarray(self.forward.deriv(s))
        return float(out) if out.ndim == 0 else out

    def inverse(self):
        return self.forward

    def compose(self, inner):
        return ComposedMap((self,) + _map_sequence(inner))


def _map_sequence(m) -> tuple:
    return m.maps if isinstance(m, ComposedMap) else (m,)


class ComposedMap:
    """Composition of time maps, outermost first."""

    is_affine = False

    def __init__(self, maps):
        self.maps = tuple(maps)

    def __call__(self, t):
        for m in reversed(self.maps):
            t = m(t)
        return t

    def deriv(self, t):
        vals = [np.asarray(t, dtype=float)]
        for m in reversed(self.maps[1:]):
            vals.append(np.asarray(m(vals[-1])))
        d = 1.0
        for m, v in zip(reversed(self.maps), vals):
            d = d * np.asarray(m.deriv(v))
        return float(d) if np.ndim(d) == 0 else d

    def inverse(self):
        return ComposedMap(tuple(m.inverse() for m in reversed(self.maps)))

    def compose(self, inner):
        return ComposedMap(self.maps + _map_sequence(inner))


# ---------------------------------------------------------------------------
# reparametrization pairs and chains


@dataclass(frozen=True, eq=False)
class ReparamPair:
    """One chain step: increasing alpha and decreasing beta meeting at tau.

    alpha(0) = 0, beta(0) = 1, alpha(1) = beta(1) = tau in (0, 1).
    """

    alpha: object
    beta: object
    tau: object

    def __post_init__(self):
        if self.alpha.is_affine and self.beta.is_affine:
            tau = _as_fraction(self.tau)
            object.__setattr__(self, "tau", tau)
            if self.alpha(Fraction(0)) != 0 or self.beta(Fraction(0)) != 1:
                raise ValueError("need alpha(0) = 0 and beta(0) = 1")
            if self.alpha(Fraction(1)) != tau or self.beta(Fraction(1)) != tau:
                raise ValueError("need alpha(1) = beta(1) = tau")
            if not 0 < tau < 1:
                raise ValueError("tau must lie in (0, 1)")
            if self.alpha.slope <= 0 or self.beta.slope >= 0:
                raise ValueError("alpha must increase and beta decrease")
        else:
            tau = float(self.tau)
            checks = [self.alpha(0.0), self.beta(0.0) - 1.0, self.alpha(1.0) - tau, self.beta(1.0) - tau]
            if max(abs(c) for c in checks) > 1e-9:
                raise ValueError("reparametrization pair violates the boundary conditions")
            if not 0 < tau < 1:
                raise ValueError("tau must lie in (0, 1)")
            ts = np.linspace(0.0, 1.0, 257)
            if np.min(np.asarray(self.alpha.deriv(ts))) < 1e-6:
                raise ValueError("alpha must increase strictly on [0, 1]")
            if np.max(np.asarray(self.beta.deriv(ts))) > -1e-6:
                raise ValueError("beta must decrease strictly on [0, 1]")

    @staticmethod
    def halving() -> "ReparamPair":
        return ReparamPair(AffineMap(Fraction(1, 2)), AffineMap(Fraction(-1, 2), 1), Fraction(1, 2))

    @staticmethod
    def affine(r) -> "ReparamPair":
        r = _as_fraction(r)
        if not 0 < r < 1:
            raise ValueError("r must lie in (0, 1)")
        return ReparamPair(AffineMap(r), AffineMap(r - 1, 1), r)

    @staticmethod
    def spline(alpha_knots, beta_knots) -> "ReparamPair":
        alpha = MonotoneSplineMap([x for x, _ in alpha_knots], [y for _, y in alpha_knots])
        beta = MonotoneSplineMap([x for x, _ in beta_knots], [y for _, y in beta_knots])
        return ReparamPair(alpha, beta, alpha(1.0))

    @property
    def is_affine(self) -> bool:
        return self.alpha.is_affine and self.beta.is_affine

    def to_json(self) -> dict:
        if self.is_affine:
            if self.alpha.slope == Fraction(1, 2) and self.beta.slope == Fraction(-1, 2):
                return {"kind": "halving"}
            return {"kind": "affine_r", "r": format_rational(_as_fraction(self.tau))}
        return {
            "kind": "spline",
            "alpha": self.alpha.to_json()["knots"],
            "beta": self.beta.to_json()["knots"],
        }

    @staticmethod
    def from_json(data: dict) -> "ReparamPair":
        kind = data["kind"]
        if kind == "halving":
            return ReparamPair.halving()
        if kind == "affine_r":
            return ReparamPair.affine(Fraction(data["r"]))
        if kind == "spline":
            return ReparamPair.spline(data["alpha"], data["beta"])
        raise ValueError(f"unknown reparametrization kind {kind!r}")


@dataclass(frozen=True, eq=False)
class TransformChain:
    """Ordered reparametrization steps; step i maps level i-1 to level i."""

    steps: tuple[ReparamPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def level(self) -> int:
        return len(self.steps)

    @property
    def is_affine(self) -> bool:
        return all(s.is_affine for s in self.steps)

    @staticmethod
    def standard(n: int) -> "TransformChain":
        return TransformChain(tuple(ReparamPair.halving() for _ in range(n)))

    @staticmethod
    def affine(rs) -> "TransformChain":
        return TransformChain(tuple(ReparamPair.affine(r) for r in rs))

    @cached_property
    def table(self) -> "SegmentTable":
        return _build_segment_table(self)

    def grid_denominator(self) -> int:
        """Smallest N0 such that multiples of N0 put every breakpoint on a node."""
        if not self.is_affine:
            raise ValueError("grid denominators are defined for affine chains only")
        den = 1
        for b in self.table.breakpoints():
            den = den * b.denominator // math.gcd(den, b.denominator)
        return den

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps]}

    @staticmethod
    def from_json(data: dict) -> "TransformChain":
        return TransformChain(tuple(ReparamPair.from_json(s) for s in data["steps"]))

    def is_standard(self) -> bool:
        return self.is_affine and all(
            s.alpha.slope == Fraction(1, 2) and s.alpha.intercept == 0 for s in self.steps
        )


@dataclass(frozen=True, eq=False)
class SegmentEntry:
    """One copy's slot: interval, chord-time map theta, and its sign."""

    copy: int
    lo: object
    hi: object
    theta: object
    sign: int

    def rate(self, t):
        return self.sign * np.asarray(self.theta.deriv(t))

    def tau(self):
        """Base-loop time at which this copy reads its chord time."""
        return self.theta.inverse()

    def to_json(self) -> dict:
        theta = self.theta.to_json() if hasattr(self.theta, "to_json") else {"kind": "numeric"}
        return {
            "copy": self.copy + 1,
            "interval": [_endpoint_json(self.lo), _endpoint_json(self.hi)],
            "theta": theta,
            "sign": self.sign,
        }


def _endpoint_json(x):
    return format_rational(x) if isinstance(x, Fraction) else float(x)


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Per-copy intervals, time maps, and rates; the single source of truth."""

    entries: tuple[SegmentEntry, ...]

    def __getitem__(self, copy: int) -> SegmentEntry:
        return self.entries[copy]

    def __len__(self) -> int:
        return len(self.entries)

    def by_interval(self) -> list[SegmentEntry]:
        return sorted(self.entries, key=lambda e: float(e.lo))

    def breakpoints(self) -> list:
        pts = sorted({e.lo for e in self.entries} | {e.hi for e in self.entries}, key=float)
        return pts

    def to_json(self) -> dict:
        return {"segments": [e.to_json() for e in self.by_interval()]}


def _build_segment_table(chain: TransformChain) -> SegmentTable:
    if chain.level < 1:
        raise ValueError("segment tables need a chain of length >= 1")
    step = chain.steps[0]
    zero = Fraction(0) if step.is_affine else 0.0
    one = Fraction(1) if step.is_affine else 1.0
    entries = [
        SegmentEntry(0, zero, step.tau, step.alpha.inverse(), +1),
        SegmentEntry(1, step.tau, one, step.beta.inverse(), -1),
    ]
    for step in chain.steps[1:]:
        half = len(entries)
        ainv, binv = step.alpha.inverse(), step.beta.inverse()
        new: list = [None] * (2 * half)
        for e in entries:
            tau = step.tau if e.theta.is_affine and isinstance(step.tau, Fraction) else float(step.tau)
            tstar = e.theta.inverse()(tau)
            if e.sign > 0:
                new[e.copy] = SegmentEntry(e.copy, e.lo, tstar, ainv.compose(e.theta), e.sign)
                new[e.copy + half] = SegmentEntry(e.copy + half, tstar, e.hi, binv.compose(e.theta), -e.sign)
            else:
                # decreasing theta covers [tau,1] on the left part of the interval
                new[e.copy] = SegmentEntry(e.copy, tstar, e.hi, ainv.compose(e.theta), e.sign)
                new[e.copy + half] = SegmentEntry(e.copy + half, e.lo, tstar, binv.compose(e.theta), -e.sign)
        entries = new
    level = build_level(PhaseSpace(1, "plane"), chain.level)
    assert tuple(e.sign for e in entries) == level.sign_vector
    return SegmentTable(tuple(entries))


def segment_table(chain: TransformChain) -> SegmentTable:
    return chain.table


def copy_time_map(chain: TransformChain, copy: int):
    """tau_copy = theta_copy^{-1}: the base-loop time read at chord time s."""
    return chain.table[copy].theta.inverse()


def delayed_time(chain: TransformChain, segment_copy: int, coeff_copy: int):
    """Map delta(t) = theta_m^{-1}(theta_k(t)) on segment k's interval.

    For affine chains the result is an exact affine map whose values lie in
    copy m's interval, i.e. already the mod-1 canonical representative.
    """
    if segment_copy == coeff_copy:
        raise ValueError("delayed time needs two distinct copies")
    table = chain.table
    return table[coeff_copy].theta.inverse().compose(table[segment_copy].theta)


def copy_time_map_printed(n: int, copy: int) -> AffineMap:
    """Halving-chain copy time maps from the alternative halving recursion.

    Kept alongside the composition-derived maps for comparison; the two
    disagree on some copies for n >= 2 (see compare_tau_tables).
    """
    if not 0 <= copy < 2**n:
        raise ValueError("copy index out of range")
    maps = [AffineMap(1, 0)]
    for _ in range(n):
        first = [AffineMap(m.slope / 2, m.intercept / 2) for m in maps]
        second = [AffineMap(-m.slope / 2, 1 - m.intercept / 2) for m in maps]
        maps = first + second
    return maps[copy]


def compare_tau_tables(n: int) -> list[dict]:
    """Derived vs printed copy-time maps for the standard chain, per copy."""
    chain = TransformChain.standard(n)
    rows = []
    for m in range(2**n):
        derived = copy_time_map(chain, m)
        printed = copy_time_map_printed(n, m)
        rows.append(
            {
                "copy": m + 1,
                "derived": derived,
                "printed": printed,
                "match": derived.slope == printed.slope and derived.intercept == printed.intercept,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# sampled curves


@dataclass(eq=False)
class DiscreteCurve:
    """Uniformly sampled curve at some level; loops close up, paths do not.

    samples has shape (N+1, copies, dim) with torus coordinates stored
    canonically in [0, 1).  breakpoints mark where the curve is only
    continuous; interpolation never crosses them.
    """

    space: PhaseSpace
    level: int
    samples: np.ndarray
    is_loop: bool
    breakpoints: tuple = ()

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 3:
            raise ValueError("samples must have shape (N+1, copies, dim)")
        if self.samples.shape[1] != 2**self.level:
            raise ValueError("copy count does not match the level")
        if self.samples.shape[2] != self.space.dim:
            raise ValueError("coordinate count does not match the space")
        _validate_grid(self.n_intervals, self.breakpoints)

    @property
    def n_intervals(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def copies(self) -> int:
        return self.samples.shape[1]

    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_intervals + 1)

    @cached_property
    def _interp(self) -> "CurveInterpolant":
        return CurveInterpolant(self)

    def interpolant(self) -> "CurveInterpolant":
        return self._interp

    @staticmethod
    def from_function(space, fn, n_intervals, level=0, is_loop=True, breakpoints=()):
        ts = np.linspace(0.0, 1.0, n_intervals + 1)
        samples = np.asarray([fn(t) for t in ts], dtype=float)
        if samples.ndim == 2:
            samples = samples[:, None, :]
        return DiscreteCurve(space, level, space.normalize(samples), is_loop, tuple(breakpoints))


def _breakpoint_node(bp, n: int):
    """Node index of a breakpoint, or None when it misses the grid."""
    if isinstance(bp, Fraction):
        k = bp * n
        return int(k) if k.denominator == 1 else None
    k = round(float(bp) * n)
    return k if abs(float(bp) * n - k) <= 1e-9 else None


def _validate_grid(n: int, breakpoints) -> None:
    for bp in breakpoints:
        if _breakpoint_node(bp, n) is None:
            raise ValueError(f"grid is misaligned: breakpoint {bp} is not one of {n} nodes")


class CurveInterpolant:
    """Cubic interpolation per smooth segment, torus-aware.

    Evaluations return the locally lifted representative (continuous within
    each segment); periodic factors and wrapped comparisons do not need the
    canonical form, and callers that store samples normalize afterwards.
    """

    def __init__(self, curve: DiscreteCurve):
        self.curve = curve
        n = curve.n_intervals
        inner = sorted({float(b) for b in curve.breakpoints} - {0.0, 1.0})
        bounds = [0.0] + inner + [1.0]
        self._bounds = np.array(bounds)
        self._pieces = []
        flat = curve.samples.reshape(n + 1, -1)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k0, k1 = round(lo * n), round(hi * n)
            ts = np.linspace(k0 / n, k1 / n, k1 - k0 + 1)
            ys = self._lift(flat[k0 : k1 + 1])
            if len(ts) >= 4:
                self._pieces.append(CubicSpline(ts, ys, axis=0, bc_type="not-a-knot"))
            elif len(ts) >= 2:
                self._pieces.append(CubicSpline(ts, ys, axis=0, bc_type="natural"))
            else:
                raise ValueError("each smooth segment needs at least two sample nodes")

    def _lift(self, flat_samples):
        if self.curve.space.topology != "torus":
            return flat_samples
        diffs = flat_samples[1:] - flat_samples[:-1]
        diffs -= np.ceil(diffs - 0.5)
        out = np.empty_like(flat_samples)
        out[0] = flat_samples[0]
        out[1:] = flat_samples[0] + np.cumsum(diffs, axis=0)
        return out

    def evaluate(self, t):
        """Values at float times t, shape (len(t), copies, dim)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.curve.is_loop:
            t = np.where(t == 1.0, 1.0, np.mod(t, 1.0))
        t = np.clip(t, 0.0, 1.0)
        idx = np.searchsorted(self._bounds[1:-1], t, side="right")
        out = np.empty((len(t),) + self.curve.samples.shape[1:])
        for i, piece in enumerate(self._pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = piece(t[mask]).reshape(-1, *self.curve.samples.shape[1:])
        return out


def _map_on_nodes(curve: DiscreteCurve, tmap, n_out: int, copy: int, k0: int = 0, k1: int | None = None) -> np.ndarray:
    """curve_copy(tmap(k/n_out)) for k = k0..k1 (default: all n_out + 1 nodes),
    exact at rational node hits.

    Affine maps are evaluated in integer arithmetic so node hits copy the
    stored sample bitwise; everything else goes through the interpolant.
    """
    k1 = n_out if k1 is None else k1
    n_in = curve.n_intervals
    out = np.empty((k1 - k0 + 1, curve.space.dim))
    miss_idx: list[int] = []
    miss_t: list[float] = []
    if getattr(tmap, "is_affine", False):
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
    else:
        ts = np.asarray(tmap(np.linspace(0.0, 1.0, n_out + 1)[k0 : k1 + 1]), dtype=float)
        miss_idx = list(range(k1 - k0 + 1))
        miss_t = list(ts)
    if miss_idx:
        vals = curve.interpolant().evaluate(np.asarray(miss_t))[:, copy, :]
        out[np.asarray(miss_idx)] = curve.space.normalize(vals)
    return out


# ---------------------------------------------------------------------------
# boundary-condition checks


def _check_boundary(curve: DiscreteCurve, tol: float = BOUNDARY_TOL) -> None:
    space = curve.space
    if curve.level == 0:
        if not curve.is_loop:
            raise ValueError("level-0 curves must be loops")
        gap = np.max(np.abs(space.wrapped_difference(curve.samples[-1], curve.samples[0])))
        if gap > tol:
            raise ValueError(f"loop fails to close: gap {gap:.3e} exceeds tol {tol:.1e}")
        return
    level = build_level(space, curve.level)
    if not on_diagonal(level, 0, curve.samples[0], tol=tol):
        raise ValueError("path start is not on the start diagonal")
    if not on_diagonal(level, 1, curve.samples[-1], tol=tol):
        raise ValueError("path end is not on the end diagonal")


# ---------------------------------------------------------------------------
# transforms on sampled curves


def psi_step(pair: ReparamPair, curve: DiscreteCurve) -> DiscreteCurve:
    """One step up: out(t) = (curve(alpha(t)), curve(beta(t)))."""
    _check_boundary(curve)
    n = curve.n_intervals
    copies = curve.copies
    out = np.empty((n + 1, 2 * copies, curve.space.dim))
    for j in range(copies):
        out[:, j, :] = _map_on_nodes(curve, pair.alpha, n, j)
        out[:, j + copies, :] = _map_on_nodes(curve, pair.beta, n, j)
    bps = _psi_breakpoints(pair, curve.breakpoints)
    return DiscreteCurve(curve.space, curve.level + 1, curve.space.normalize(out), False, bps)


def _psi_breakpoints(pair: ReparamPair, breakpoints) -> tuple:
    out = set()
    for b in breakpoints:
        bf = float(b)
        if bf <= float(pair.tau) + 1e-12:
            out.add(pair.alpha.inverse()(b if pair.is_affine and isinstance(b, Fraction) else bf))
        if bf >= float(pair.tau) - 1e-12:
            out.add(pair.beta.inverse()(b if pair.is_affine and isinstance(b, Fraction) else bf))
    return tuple(sorted(out, key=float))


def phi_step(pair: ReparamPair, curve: DiscreteCurve) -> DiscreteCurve:
    """One step down, gluing the two copy blocks at tau."""
    n = curve.n_intervals
    half = curve.copies // 2
    if curve.level < 1:
        raise ValueError("phi_step needs a curve at level >= 1")
    gap = np.max(np.abs(curve.space.wrapped_difference(curve.samples[-1, :half], curve.samples[-1, half:])))
    if gap > BOUNDARY_TOL:
        raise ValueError(f"endpoint gluing mismatch {gap:.3e} exceeds tol {BOUNDARY_TOL:.1e}")
    ktau = _breakpoint_node(pair.tau, n)
    if ktau is None:
        raise ValueError(f"grid is misaligned: tau {pair.tau} is not one of {n} nodes")
    ainv, binv = pair.alpha.inverse(), pair.beta.inverse()
    out = np.empty((n + 1, half, curve.space.dim))
    for j in range(half):
        first = _map_on_nodes(curve, ainv, n, j)
        second = _map_on_nodes(curve, binv, n, j + half)
        out[: ktau + 1, j, :] = first[: ktau + 1]
        out[ktau:, j, :] = second[ktau:]
    bps = _phi_breakpoints(pair, curve.breakpoints)
    is_loop = curve.level == 1
    return DiscreteCurve(curve.space, curve.level - 1, curve.space.normalize(out), is_loop, bps)


def _phi_breakpoints(pair: ReparamPair, breakpoints) -> tuple:
    out = {pair.tau}
    for b in breakpoints:
        out.add(pair.alpha(b if pair.is_affine and isinstance(b, Fraction) else float(b)))
        out.add(pair.beta(b if pair.is_affine and isinstance(b, Fraction) else float(b)))
    return tuple(sorted({b for b in out if 1e-12 < float(b) < 1 - 1e-12}, key=float))


def psi_chain(chain: TransformChain, loop: DiscreteCurve) -> DiscreteCurve:
    """Full transform of a loop to a path at the chain's level.

    Copy j of the output reads the loop at its copy time map, which is the
    composition of the chain's steps; node values are exact whenever the
    image time lands on the loop's grid.
    """
    if chain.level == 0:
        return loop
    if loop.level != 0:
        raise ValueError("psi_chain starts from a level-0 loop")
    _check_boundary(loop)
    table = chain.table
    _validate_grid(loop.n_intervals, table.breakpoints())
    n = loop.n_intervals
    out = np.empty((n + 1, len(table), loop.space.dim))
    for m, entry in enumerate(table.entries):
        out[:, m, :] = _map_on_nodes(loop, entry.tau(), n, 0)
    bps = _chain_image_breakpoints(table, loop.breakpoints)
    return DiscreteCurve(loop.space, chain.level, loop.space.normalize(out), False, bps)


def _chain_image_breakpoints(table: SegmentTable, breakpoints) -> tuple:
    out = set()
    for b in breakpoints:
        for e in table.entries:
            if float(e.lo) - 1e-12 <= float(b) <= float(e.hi) + 1e-12:
                out.add(e.theta(b if e.theta.is_affine and isinstance(b, Fraction) else float(b)))
    return tuple(sorted({b for b in out if 1e-12 < float(b) < 1 - 1e-12}, key=float))


def phi_chain(chain: TransformChain, path: DiscreteCurve) -> DiscreteCurve:
    """Full pullback of a path to a loop, segment by segment."""
    if chain.level == 0:
        return path
    if path.level != chain.level:
        raise ValueError("path level does not match the chain")
    _check_boundary(path)
    table = chain.table
    _validate_grid(path.n_intervals, table.breakpoints())
    n = path.n_intervals
    out = np.empty((n + 1, 1, path.space.dim))
    bps = []
    for entry in table.by_interval():
        k0 = _breakpoint_node(entry.lo, n)
        k1 = _breakpoint_node(entry.hi, n)
        out[k0 : k1 + 1, 0, :] = _map_on_nodes(path, entry.theta, n, entry.copy, k0, k1)
        if k0 > 0:
            bps.append(entry.lo)
    return DiscreteCurve(path.space, 0, path.space.normalize(out), True, tuple(bps))


def resample(curve: DiscreteCurve, n_new: int) -> DiscreteCurve:
    """Resamples onto n_new intervals; coinciding nodes are copied bitwise."""
    _validate_grid(n_new, curve.breakpoints)
    n_old = curve.n_intervals
    out = np.empty((n_new + 1, curve.copies, curve.space.dim))
    for j in range(curve.copies):
        out[:, j, :] = _map_on_nodes(curve, AffineMap(1, 0), n_new, j)
    return DiscreteCurve(curve.space, curve.level, curve.space.normalize(out), curve.is_loop, curve.breakpoints)


def sup_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Wrapped sup distance between two curves on the same grid."""
    if a.samples.shape != b.samples.shape:
        raise ValueError("curves must share the sampling grid")
    return float(np.max(np.abs(a.space.wrapped_difference(a.samples, b.samples))))
