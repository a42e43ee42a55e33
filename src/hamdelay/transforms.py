"""Loop-path transforms, reparametrization chains, and segment tables.

All time bookkeeping lives here.  A chain of (alpha, beta) reparametrization
pairs identifies loops on the base space with paths on the product tower;
the derived segment table assigns each product copy a subinterval of [0,1],
a monotone time map onto chord time, and a positive rate.  Affine chains
are exact rationals, so the induced delay equations come out symbolically
exact; smooth chains are monotone splines with bisection inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .geometry import MAX_LEVEL, PhaseSpace, build_level, on_diagonal

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
    """Exact affine time map t -> slope*t + intercept with rational data;
    float times read the float slope and intercept, converted once."""

    slope: Fraction
    intercept: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "slope", _as_fraction(self.slope))
        object.__setattr__(self, "intercept", _as_fraction(self.intercept))
        if self.slope == 0:
            raise ValueError("time maps must be strictly monotone (slope != 0)")
        object.__setattr__(self, "_floats", (float(self.slope), float(self.intercept)))

    @property
    def is_affine(self) -> bool:
        return True

    def __call__(self, t):
        if isinstance(t, Fraction):
            return self.slope * t + self.intercept
        slope, intercept = self._floats
        out = slope * np.asarray(t, dtype=float) + intercept
        return float(out) if out.ndim == 0 else out

    def deriv(self, t):
        slope = self._floats[0]
        return slope if np.ndim(t) == 0 else np.full(np.shape(t), slope)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.slope, -self.intercept / self.slope)

    def compose(self, inner):
        """self after inner."""
        if isinstance(inner, AffineMap):
            return AffineMap(self.slope * inner.slope, self.slope * inner.intercept + self.intercept)
        return ComposedMap((self,) + _map_sequence(inner))

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
        from scipy.interpolate import PchipInterpolator

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
    """One chain step: increasing alpha and decreasing beta meeting at tau,
    alpha(0) = 0, beta(0) = 1, alpha(1) = beta(1) = tau in (0, 1)."""

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
            try:
                r = Fraction(data["r"])
            except ZeroDivisionError:
                raise ValueError(f"chain step r {data['r']!r} has a zero denominator") from None
            return ReparamPair.affine(r)
        if kind == "spline":
            return ReparamPair.spline(data["alpha"], data["beta"])
        raise ValueError(f"unknown reparametrization kind {kind!r}")


@dataclass(frozen=True, eq=False)
class TransformChain:
    """Ordered reparametrization steps; step i maps level i-1 to level i."""

    steps: tuple[ReparamPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.steps) > MAX_LEVEL:
            raise ValueError(f"a chain of {len(self.steps)} steps exceeds the resource guard ({MAX_LEVEL})")

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
    _nodes: dict = field(default_factory=dict, init=False, repr=False)  # n -> nodes(n)

    def __getitem__(self, copy: int) -> SegmentEntry:
        return self.entries[copy]

    def by_interval(self) -> list[SegmentEntry]:
        return sorted(self.entries, key=lambda e: float(e.lo))

    @cached_property
    def _breakpoints(self) -> tuple:
        return tuple(sorted({e.lo for e in self.entries} | {e.hi for e in self.entries}, key=float))

    def breakpoints(self) -> list:
        return list(self._breakpoints)

    def nodes(self, n: int) -> list[int]:
        """Node index of every breakpoint, 0 and n included, on an n-interval
        grid; ValueError if one misses it.  The one node-alignment rule; a
        grid that passes is kept, so a pullback per chord checks it once."""
        nodes = self._nodes.get(n)
        if nodes is None:
            nodes = self._nodes[n] = tuple(_validate_grid(n, self._breakpoints))
        return list(nodes)

    def to_json(self) -> dict:
        return {"segments": [e.to_json() for e in self.by_interval()]}


def _build_segment_table(chain: TransformChain) -> SegmentTable:
    if chain.level == 0:
        return SegmentTable((SegmentEntry(0, Fraction(0), Fraction(1), AffineMap(1), +1),))
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


def copy_time_map(chain: TransformChain, copy: int):
    """tau_copy = theta_copy^{-1}: the base-loop time read at chord time s."""
    return chain.table[copy].theta.inverse()


def delayed_time(chain: TransformChain, segment_copy: int, coeff_copy: int):
    """Map delta(t) = theta_m^{-1}(theta_k(t)) on segment k's interval; for
    affine chains an exact affine map whose values lie in copy m's interval,
    already the mod-1 canonical representative."""
    if segment_copy == coeff_copy:
        raise ValueError("delayed time needs two distinct copies")
    table = chain.table
    return table[coeff_copy].theta.inverse().compose(table[segment_copy].theta)


def printed_time_maps(n: int) -> list[AffineMap]:
    """The 2^n halving-chain copy time maps of the alternative halving
    recursion, copy by copy, kept for comparison with the composed maps;
    the two disagree on some copies for n >= 2 (see compare_tau_tables).
    """
    maps = [AffineMap(1, 0)]
    for _ in range(n):
        first = [AffineMap(m.slope / 2, m.intercept / 2) for m in maps]
        second = [AffineMap(-m.slope / 2, 1 - m.intercept / 2) for m in maps]
        maps = first + second
    return maps


def compare_tau_tables(n: int) -> list[dict]:
    """Derived vs printed copy-time maps for the standard chain, per copy."""
    chain = TransformChain.standard(n)
    rows = []
    for m, printed in enumerate(printed_time_maps(n)):
        derived = copy_time_map(chain, m)
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
    samples has shape (N+1, copies, dim), torus coordinates in [0, 1).
    breakpoints mark where the curve is only continuous; interpolation
    never crosses them."""

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
        """Samples fn at the n_intervals + 1 uniform nodes of [0, 1]: one call
        on the node column ts[:, None], returning (N+1, dim) or (N+1,
        copies, dim)."""
        ts = np.linspace(0.0, 1.0, n_intervals + 1)
        samples = np.asarray(fn(ts[:, None]), dtype=float)
        if samples.shape[:1] != ts.shape:
            raise ValueError(f"fn must return one row per node ({len(ts)}), got shape {samples.shape}")
        if samples.ndim == 2:
            samples = samples[:, None, :]
        return DiscreteCurve(space, level, space.normalize(samples), is_loop, tuple(breakpoints))


def _breakpoint_node(bp, n: int):
    """Node index of a breakpoint, or None when it misses the grid."""
    if isinstance(bp, Fraction):
        k, rem = divmod(bp.numerator * n, bp.denominator)
        return k if rem == 0 else None
    k = round(float(bp) * n)
    return k if abs(float(bp) * n - k) <= 1e-9 else None


def _validate_grid(n: int, breakpoints) -> list[int]:
    """Node index of each breakpoint; ValueError at the first that misses."""
    nodes = []
    for bp in breakpoints:
        k = _breakpoint_node(bp, n)
        if k is None:
            raise ValueError(f"grid is misaligned: breakpoint {bp} is not one of {n} nodes")
        nodes.append(k)
    return nodes


# Cubic splines on a uniform grid.  On knots of spacing h, scipy's
# CubicSpline system for u = h s, the slopes s times h, has interior rows
# u[i-1] + 4 u[i] + u[i+1] = 3 (d[i-1] + d[i]), d the first differences of
# the samples; natural ends read 2 u[0] + u[1] = 3 d[0] (and mirrored), and
# not-a-knot ends u[0] + 2 u[1] = (5 d[0] + d[1]) / 2 (and mirrored).
# Subtracting a not-a-knot end row from its neighbour leaves the system of
# the inner unknowns with the natural-end matrix, so both rules solve
# T_k = tridiag(1, (2, 4, ..., 4, 2), 1): diagonally dominant, so cyclic
# reduction needs no pivoting (de Boor, A Practical Guide to Splines, ch. IV;
# Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627).


@lru_cache(maxsize=32)
def _reduction(k: int) -> tuple:
    """Cyclic reduction of T_k, k >= 1: per level, the stride of its
    unknowns, the multipliers that fold the odd rows into the even ones,
    and the odd rows' coefficients over their pivots; then the last pivot."""
    a, b, c = np.ones(k), np.full(k, 4.0), np.ones(k)
    a[0] = c[-1] = 0.0
    b[0] = b[-1] = 2.0
    levels, stride = [], 1
    while len(b) > 1:
        ne, no = (len(b) + 1) // 2, len(b) // 2
        ao, bo, co = a[1::2], b[1::2], c[1::2]
        left, right = -a[2::2] / bo[: ne - 1], -c[0::2][:no] / bo
        levels.append((stride, left, right, ao / bo, (co / bo)[: ne - 1], 1.0 / bo))
        a, b, c = a[0::2].copy(), b[0::2].copy(), c[0::2].copy()
        a[1:] = left * ao[: ne - 1]
        b[1:] += left * co[: ne - 1]
        b[:no] += right * ao
        c[:no] = right * co
        stride *= 2
    return tuple(levels), b[0]


def _solve_reduced(r: np.ndarray) -> None:
    """Solves T_k x = r along the last axis of r, in place, by cyclic
    reduction over strided views: r[..., ::2 s] holds the reduced system of
    stride s, and each odd row keeps its right-hand side until its
    unknown is solved."""
    levels, pivot = _reduction(r.shape[-1])
    for s, left, right, _, _, _ in levels:
        even, odd = r[..., :: 2 * s], r[..., s :: 2 * s]
        even[..., 1:] += left * odd[..., : even.shape[-1] - 1]
        even[..., : odd.shape[-1]] += right * odd
    r[..., :1] /= pivot
    for s, _, _, lower, upper, inverse in reversed(levels):
        even, odd = r[..., :: 2 * s], r[..., s :: 2 * s]
        odd *= inverse
        odd -= lower * even[..., : odd.shape[-1]]
        odd[..., : even.shape[-1] - 1] -= upper * even[..., 1:]


def _scaled_slopes(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u = h s, the spline slopes times the knot spacing, at the samples y
    (..., m) with differences d along the last axis, by scipy's rules: the
    chord at m = 2, natural ends at 3 and not-a-knot ends from 4."""
    if y.shape[-1] == 2:
        return np.concatenate([d, d], axis=-1)
    u = np.empty_like(y)
    np.add(d[..., :-1], d[..., 1:], out=u[..., 1:-1])
    u[..., 1:-1] *= 3.0
    if y.shape[-1] == 3:
        u[..., 0], u[..., -1] = 3.0 * d[..., 0], 3.0 * d[..., -1]
        _solve_reduced(u)
        return u
    first = 0.5 * (5.0 * d[..., 0] + d[..., 1])
    last = 0.5 * (d[..., -2] + 5.0 * d[..., -1])
    u[..., 1] -= first
    u[..., -2] -= last
    _solve_reduced(u[..., 1:-1])
    u[..., 0] = first - 2.0 * u[..., 1]
    u[..., -1] = last - 2.0 * u[..., -2]
    return u


class UniformSpline:
    """Cubic splines through samples on the grid t_k = k/n, one per smooth
    segment of nodes, as one table of PPoly-style coefficients: row k holds
    the cubic on [t_k, t_{k+1}) in powers of t - t_k, and row n the constant
    sample at t_n, so every node reads its sample bitwise.  A segment of 4
    or more nodes gets not-a-knot ends, one of 3 natural ends and one of 2
    the chord, the rules of scipy's CubicSpline, which this matches to
    rounding.

    pieces holds one (start, k0, y) per segment, in order: y of shape (m,
    groups, width) is read at nodes k0 .. k0 + m - 1, the last node of a
    segment is the first of the next, and start is the time from which the
    segment is read (t_k0, or a breakpoint just off it).  A call reads
    times in [0, 1], every group or one group per time."""

    def __init__(self, n: int, pieces):
        groups, width = pieces[0][2].shape[1:]
        self.knots = np.arange(n + 1) / n  # correctly rounded, as float(Fraction(k, n)) is
        self.keys = np.append(self.knots, np.inf)
        self._rows = n + 1
        # (power, width, group, row), read as (power, width, group * row)
        table = np.empty((4, width, groups, n + 1))
        for start, k0, y in pieces:
            y = np.ascontiguousarray(y.transpose(2, 1, 0))
            m = y.shape[-1]
            self.keys[k0] = start
            d = np.diff(y)
            u = _scaled_slopes(y, d)
            c = table[:, :, :, k0 : k0 + m - 1]
            t = u[..., :-1] + u[..., 1:]
            t -= 2.0 * d
            np.multiply(t, float(n) ** 3, out=c[0])
            np.subtract(d, u[..., :-1], out=c[1])
            c[1] -= t
            c[1] *= float(n) ** 2
            np.multiply(u[..., :-1], float(n), out=c[2])
            c[3] = y[..., :-1]
        table[:3, :, :, n] = 0.0
        table[3, :, :, n] = y[..., -1]
        self._table = table.reshape(4, width, groups * (n + 1))

    def __call__(self, t, group=None) -> np.ndarray:
        """Values at the times t, (len(t), groups, width), or (len(t),
        width) when group gives each time the group to read."""
        # the row whose key is the last <= t: floor(t n), then one step each
        # way, since rounding and a breakpoint just off its node move it by one
        row = (t * (self._rows - 1)).astype(np.intp)
        np.clip(row, 0, self._rows - 1, out=row)
        row -= t < self.keys[row]
        row += t >= self.keys[row + 1]
        s = t - self.knots[row]
        groups = self._table.shape[-1] // self._rows
        if group is None:
            col = (np.arange(groups)[:, None] * self._rows + row).T.ravel()
            s = np.repeat(s, groups)
        else:
            col = np.asarray(group) * self._rows + row
        c = np.take(self._table, col, axis=-1)
        out = c[0]
        for k in (1, 2, 3):
            out *= s
            out += c[k]
        return out.T if group is not None else out.T.reshape(len(t), groups, out.shape[0])


class CurveInterpolant:
    """Cubic interpolation per smooth segment, torus-aware.  Evaluations
    return the locally lifted representative, continuous within each
    segment; callers that store samples normalize them.  It keeps no
    reference to its curve, which caches it: that cycle would keep the
    curve's samples and the spline table until the cyclic collector ran."""

    def __init__(self, curve: DiscreteCurve):
        self.is_loop = curve.is_loop
        n = curve.n_intervals
        inner = sorted({float(b) for b in curve.breakpoints} - {0.0, 1.0})
        bounds = [0.0] + inner + [1.0]
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k0, k1 = round(lo * n), round(hi * n)
            if k1 - k0 < 1:
                raise ValueError("each smooth segment needs at least two sample nodes")
            pieces.append((lo, k0, curve.space.unwrap(curve.samples[k0 : k1 + 1])))
        self._spline = UniformSpline(n, pieces)

    def evaluate(self, t, copy=None):
        """Values at float times t, shape (len(t), copies, dim), or (len(t),
        dim) when copy gives each time the copy to read."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.is_loop:
            t = np.where(t == 1.0, 1.0, np.mod(t, 1.0))
        return self._spline(np.clip(t, 0.0, 1.0), copy)


def _map_on_nodes(curve: DiscreteCurve, n_out: int, jobs) -> list:
    """Reads the curve on output nodes for every job (tmap, copy, k0, k1):
    curve_copy(tmap(k/n_out)) for k = k0..k1, one (k1 - k0 + 1, dim) block
    per job, from one array expression and one interpolant call.

    An affine map (ps/qs) t + pi/qi sends node k to num_k / den, with
    num_k = ps*qi*k + pi*qs*n_out and den = qs*qi*n_out.  Node k hits input
    node num_k*n_in // den when the remainder is zero and then copies the
    stored sample bitwise (a loop wraps hits outside [0, n_in]); a miss, or
    any node of another map, is read from the interpolant.  The rows are
    int64 when every |num_k|*n_in < 2^62 and every |num_k|, den < 2^53, else
    Python ints in an object array: both floor like divmod, and dividing
    integers below 2^53 as floats is correctly rounded, so every hit and
    miss time is the exact rational one.
    """
    n_in = curve.n_intervals
    params, sizes, starts, bound, den_max = [], [], [0], 0, 1
    for tmap, copy, k0, k1 in jobs:
        # per job: a, b, den, the node shift k - row, the copy and an affine flag
        if tmap.is_affine:
            ps, qs = tmap.slope.numerator, tmap.slope.denominator
            pi, qi = tmap.intercept.numerator, tmap.intercept.denominator
            a, b, den = ps * qi, pi * qs * n_out, qs * qi * n_out
            bound = max(bound, abs(a) * max(k1, 1) + abs(b))  # >= |a|, |b| and every |num_k|
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
    node, rem = scaled // den, scaled % den  # np.divmod has no object loop
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


# ---------------------------------------------------------------------------
# boundary-condition checks


def _check_boundary(curve: DiscreteCurve, tol: float = BOUNDARY_TOL) -> None:
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


# ---------------------------------------------------------------------------
# transforms on sampled curves


def _image_breakpoints(pieces, breakpoints) -> tuple:
    """Interior images of breakpoints under piecewise time maps, sorted: each
    (lo, hi, tmap) piece maps the breakpoints within [lo, hi], exactly for a
    rational breakpoint under an affine map.  The one breakpoint-image rule."""
    out = set()
    for b in breakpoints:
        for lo, hi, tmap in pieces:
            if float(lo) - 1e-12 <= float(b) <= float(hi) + 1e-12:
                out.add(tmap(b if tmap.is_affine and isinstance(b, Fraction) else float(b)))
    return tuple(sorted({b for b in out if 1e-12 < float(b) < 1 - 1e-12}, key=float))


def psi_chain(chain: TransformChain, loop: DiscreteCurve) -> DiscreteCurve:
    """Full transform of a loop to a path at the chain's level: copy j
    reads the loop at its copy time map, exactly where the image time lands
    on the loop's grid."""
    if chain.level == 0:
        return loop
    if loop.level != 0:
        raise ValueError("psi_chain starts from a level-0 loop")
    _check_boundary(loop)
    table = chain.table
    n = loop.n_intervals
    table.nodes(n)  # raises on a misaligned grid
    out = np.stack(_map_on_nodes(loop, n, [(e.theta.inverse(), 0, 0, n) for e in table.entries]), axis=1)
    bps = _image_breakpoints([(e.lo, e.hi, e.theta) for e in table.entries], loop.breakpoints)
    return DiscreteCurve(loop.space, chain.level, loop.space.normalize(out), False, bps)


def phi_chain(chain: TransformChain, path: DiscreteCurve) -> DiscreteCurve:
    """Full pullback of a path to a loop, segment by segment."""
    if chain.level == 0:
        return path
    if path.level != chain.level:
        raise ValueError("path level does not match the chain")
    _check_boundary(path)
    n = path.n_intervals
    table = chain.table
    nodes = table.nodes(n)  # the entries tile [0, 1]
    jobs = [(e.theta, e.copy, k0, k1) for e, k0, k1 in zip(table.by_interval(), nodes, nodes[1:])]
    blocks = _map_on_nodes(path, n, jobs)
    # a node on a breakpoint reads the later block
    out = np.concatenate([b[:-1] for b in blocks[:-1]] + [blocks[-1]])[:, None, :]
    return DiscreteCurve(path.space, 0, path.space.normalize(out), True, tuple(table.breakpoints()[1:-1]))


def resample(curve: DiscreteCurve, n_new: int) -> DiscreteCurve:
    """Resamples onto n_new intervals; coinciding nodes are copied bitwise."""
    _validate_grid(n_new, curve.breakpoints)
    jobs = [(AffineMap(1, 0), j, 0, n_new) for j in range(curve.copies)]
    out = np.stack(_map_on_nodes(curve, n_new, jobs), axis=1)
    return DiscreteCurve(curve.space, curve.level, curve.space.normalize(out), curve.is_loop, curve.breakpoints)


def sup_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Wrapped sup distance between two curves on the same grid."""
    if a.samples.shape != b.samples.shape:
        raise ValueError("curves must share the sampling grid")
    return a.space.distance(a.samples, b.samples)
