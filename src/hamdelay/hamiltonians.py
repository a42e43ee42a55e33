"""Structured Hamiltonians on product levels, their vector fields, and lifts.

A structured Hamiltonian is a sum of weighted products of per-copy factors,
each factor a closed-form spatial part times a time profile.  The
Hamiltonian vector field is X_H = J grad H per copy, signed by the level's
alternating sign vector.  Each Hamiltonian compiles on first use into flat
per-factor arrays (_Compiled), its one evaluator.  Lifting a base
Hamiltonian along a chain distributes it over the copies, each copy reading
its time through its copy time map, weighted by that map's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .geometry import LevelStructure
from .transforms import TransformChain, copy_time_map, printed_time_maps

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# spatial parts


# the largest |freq| or exponent: integral floats up to it are exact, and
# so are the float and int64 tables compiled from them
MAX_INTEGER = 2**53


def _integer(x, what: str, minimum: int = -MAX_INTEGER, maximum: float = MAX_INTEGER) -> int:
    """x as an int; raises unless x is an int or an integral float (bools do
    not count) in [minimum, maximum], so nothing is truncated or clamped into
    range.  The one integer rule of Hamiltonians and configs."""
    integral = isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer()
    if isinstance(x, bool) or not integral:
        raise ValueError(f"{what}: {x!r} is not an integer")
    if not minimum <= x <= maximum:
        raise ValueError(f"{what}: {x!r} is outside [{minimum}, {maximum}]")
    return int(x)


def _finite(x, what: str):
    """x, unless it is not a finite real number; bools do not count.  The
    one finite-number rule of Hamiltonians and configs."""
    if isinstance(x, bool) or not isinstance(x, Real) or not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return x


def _integers(values, what: str, minimum: int = -MAX_INTEGER) -> tuple[int, ...]:
    """values as a tuple of ints by _integer; raises on a scalar."""
    try:
        entries = list(values)
    except TypeError:
        raise TypeError(f"{what} must be a list of integers, got {values!r}") from None
    return tuple(_integer(x, what, minimum) for x in entries)


@dataclass(frozen=True)
class TrigSpatial:
    """amp * cos(2 pi freq . z + phase); integer freq keeps it torus-valued."""

    amp: float
    freq: tuple[int, ...]
    phase: float = 0.0

    def __post_init__(self):
        for key in ("amp", "phase"):
            _finite(getattr(self, key), f"trig {key}")
        object.__setattr__(self, "freq", _integers(self.freq, "trig freq"))

    def to_json(self):
        return {"kind": "trig", "amp": self.amp, "freq": list(self.freq), "phase": self.phase}


@dataclass(frozen=True)
class PolySpatial:
    """Sum of monomials c * prod z_i^{e_i}, given as ((c, (e_1, ..)), ...)."""

    terms: tuple

    def __post_init__(self):
        for c, _ in self.terms:
            _finite(c, "poly coefficient")
        object.__setattr__(
            self, "terms", tuple((float(c), _integers(es, "poly exponents", minimum=0)) for c, es in self.terms)
        )

    def to_json(self):
        return {"kind": "poly", "terms": [[c, list(es)] for c, es in self.terms]}


@dataclass(frozen=True)
class ConstSpatial:
    value_const: float = 1.0

    def __post_init__(self):
        _finite(self.value_const, "const value")

    def to_json(self):
        return {"kind": "const", "value": self.value_const}


# ---------------------------------------------------------------------------
# time profiles


@dataclass(frozen=True)
class ConstTime:
    value_const: float = 1.0

    def __post_init__(self):
        _finite(self.value_const, "const time value")

    def __call__(self, t):
        return self.value_const * np.ones_like(np.asarray(t, float))

    def to_json(self):
        return {"kind": "const", "value": self.value_const}


@dataclass(frozen=True)
class TrigTime:
    """offset + amp * cos(2 pi freq t + phase), 1-periodic for integer freq."""

    amp: float
    freq: int = 1
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        for key in ("amp", "phase", "offset"):
            _finite(getattr(self, key), f"trig time {key}")
        object.__setattr__(self, "freq", _integer(self.freq, "trig time freq"))

    def __call__(self, t):
        return self.offset + self.amp * np.cos(TWO_PI * self.freq * np.asarray(t, float) + self.phase)

    def to_json(self):
        return {"kind": "trig", "amp": self.amp, "freq": self.freq, "phase": self.phase, "offset": self.offset}


@dataclass(frozen=True)
class BumpTime:
    """Smooth 1-periodic bump supported on width-wide window around center."""

    center: float = 0.5
    width: float = 0.25
    height: float = 1.0

    def __post_init__(self):
        for key in ("center", "width", "height"):
            _finite(getattr(self, key), f"bump {key}")
        if self.width <= 0:
            raise ValueError(f"bump width must be > 0, got {self.width!r}")

    def __call__(self, t):
        u = np.asarray(t, float) - self.center
        u = (u - np.ceil(u - 0.5)) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(1.0 - 1.0 / np.maximum(1.0 - u**2, 1e-300))
        out = np.where(inside, self.height * vals, 0.0)
        return out

    def to_json(self):
        return {"kind": "bump", "center": self.center, "width": self.width, "height": self.height}


@dataclass(eq=False)
class TabulatedTime:
    """Periodic cubic through uniform samples on [0, 1); documented accuracy loss."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("tabulated values must hold at least one number")
        for x in self.values:
            _finite(x, "tabulated value")
        from scipy.interpolate import CubicSpline

        vals = np.asarray(self.values, float)
        xs = np.linspace(0.0, 1.0, len(vals) + 1)
        self._spline = CubicSpline(xs, np.append(vals, vals[0]), bc_type="periodic")

    def __call__(self, t):
        return self._spline(np.mod(np.asarray(t, float), 1.0))

    def to_json(self):
        return {"kind": "tabulated", "values": [float(v) for v in self.values]}


@dataclass(frozen=True, eq=False)
class LiftTime:
    """Time profile of one lifted copy: |tmap'(t)| * base(tmap(t))."""

    base: object
    tmap: object

    def __call__(self, t):
        t = np.asarray(t, float)
        return np.abs(np.asarray(self.tmap.deriv(t))) * np.asarray(self.base(self.tmap(t)))

    def to_json(self):
        tmap = self.tmap.to_json() if hasattr(self.tmap, "to_json") else {"kind": "numeric"}
        return {"kind": "lift", "base": self.base.to_json(), "tmap": tmap}


# ---------------------------------------------------------------------------
# factors and Hamiltonians

def spatial_from_json(data: dict):
    kind = data["kind"]
    if kind == "trig":
        return TrigSpatial(data["amp"], data["freq"], data.get("phase", 0.0))
    if kind == "poly":
        return PolySpatial(tuple((c, es) for c, es in data["terms"]))
    if kind == "const":
        return ConstSpatial(data.get("value", 1.0))
    raise ValueError(f"unknown spatial kind {kind!r}")


def time_from_json(data: dict):
    kind = data["kind"]
    if kind == "const":
        return ConstTime(data.get("value", 1.0))
    if kind == "trig":
        return TrigTime(data["amp"], data.get("freq", 1), data.get("phase", 0.0), data.get("offset", 0.0))
    if kind == "bump":
        return BumpTime(data.get("center", 0.5), data.get("width", 0.25), data.get("height", 1.0))
    if kind == "tabulated":
        return TabulatedTime(tuple(data["values"]))
    raise ValueError(f"unknown time profile kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Factor:
    """One per-copy scalar factor F(z_copy, t) = spatial(z) * time(t)."""

    copy: int
    spatial: object
    time: object = ConstTime()

    def to_json(self):
        return {"copy": self.copy + 1, "space": self.spatial.to_json(), "time": self.time.to_json()}

    @staticmethod
    def from_json(data: dict) -> "Factor":
        return Factor(_integer(data["copy"], "copy", 1) - 1, spatial_from_json(data["space"]), time_from_json(data["time"]))


@dataclass(frozen=True, eq=False)
class StructuredHamiltonian:
    """Sum of weighted products of per-copy factors at a fixed level."""

    level: int
    terms: tuple  # ((coeff, (Factor, ...)), ...)

    def __post_init__(self):
        for i, (c, _) in enumerate(self.terms, 1):
            _finite(c, f"term {i}: coeff")
        object.__setattr__(
            self, "terms", tuple((float(c), tuple(fs)) for c, fs in self.terms)
        )
        copies = 2**self.level
        for _, factors in self.terms:
            idx = [f.copy for f in factors]
            if len(set(idx)) != len(idx):
                raise ValueError("a term may use each copy at most once")
            if any(not 0 <= i < copies for i in idx):
                raise ValueError("factor copy index out of range for the level")
        object.__setattr__(self, "_compiled", {})

    @property
    def copies(self) -> int:
        return 2**self.level

    def _program(self, dim: int) -> "_Compiled":
        """The compiled form for coordinate dimension dim, built on first use."""
        prog = self._compiled.get(dim)
        if prog is None:
            prog = self._compiled[dim] = _Compiled(self, dim)
        return prog

    def value(self, z, t):
        z = np.asarray(z, float)
        return self._program(z.shape[-1]).value(z, t)

    def gradient(self, z, t):
        z = np.asarray(z, float)
        return self._program(z.shape[-1]).field(z, t)

    def to_json(self):
        return {
            "level": self.level,
            "terms": [
                {"coeff": c, "factors": [f.to_json() for f in factors]} for c, factors in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "StructuredHamiltonian":
        """Reads the JSON form; a factor that does not parse raises a
        ValueError that names it by term and factor, counted from 1."""
        terms = []
        for i, term in enumerate(data["terms"], 1):
            factors = []
            for j, f in enumerate(term["factors"], 1):
                try:
                    factors.append(Factor.from_json(f))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"term {i} factor {j}: {exc}") from exc
            terms.append((term["coeff"], tuple(factors)))
        return StructuredHamiltonian(data["level"], tuple(terms))

    def check_dim(self, dim: int) -> None:
        """Raises a ValueError naming the first factor whose trig freq or
        poly exponents do not have one entry per coordinate."""
        for i, (_, factors) in enumerate(self.terms, 1):
            for j, f in enumerate(factors, 1):
                s = f.spatial
                lists = [("trig freq", s.freq)] if isinstance(s, TrigSpatial) else []
                if isinstance(s, PolySpatial):
                    lists = [("poly exponents", es) for _, es in s.terms]
                for what, entries in lists:
                    if len(entries) != dim:
                        raise ValueError(f"term {i} factor {j}: {what} {list(entries)} must have {dim} entries, one per coordinate")


# Batches are evaluated in row blocks whose (slot, dim, row) arrays hold
# about this many floats.  Temporaries much larger than that come fresh from
# the system allocator on every call and cost a page fault per 4 KiB page.
BLOCK_ELEMENTS = 2**13


def _sum0(x: np.ndarray) -> np.ndarray:
    """x.sum(0) as explicit adds x[0] + x[1] + ... in index order, whatever
    the layout of x.  numpy's own reduction order is unspecified: over one
    element per slice, or over an operand not in C order, it may go
    pairwise along axis 0, and a batch of one row would round differently
    from a larger batch."""
    if len(x) < 2:
        return x.sum(0)
    out = x[0] + x[1]
    for term in x[2:]:
        out += term
    return out


class _Compiled:
    """A StructuredHamiltonian as flat per-factor arrays.

    Factors get slots kind-major: the trig slots first, then the polynomial
    slots (a ConstSpatial is the zero-exponent monomial), each kind
    copy-major, and slot S is a pad of value 1 and gradient 0.  Arrays are
    batch-last, (slot, dim, row).  The gradient of slot s is its direction
    times its scale: gradient coefficient, time weight and co-factor
    values.  A copy's gradient adds its slots in term order, one add per
    rank, rank j reading each copy's j-th slot or the pad.

    frame folds the J column roll, FIELD_SIGN and a level's signs into the
    direction tables, so the signed field costs what the gradient costs;
    multiplying by +-1 is exact, so folding moves no value (an exact zero
    may change sign, which compares equal).  Every contraction is an
    elementwise product and a sum in index order (no BLAS, no numpy
    reduction over slots), so a row's result does not depend on the batch
    it rides in.  stage(signs) is that kernel on one row block.
    """

    def __init__(self, ham: "StructuredHamiltonian", dim: int):
        factors = [(k, f) for k, (_, fs) in enumerate(ham.terms) for f in fs]
        if not all(isinstance(f.spatial, (TrigSpatial, PolySpatial, ConstSpatial)) for _, f in factors):
            raise TypeError("spatial parts must be TrigSpatial, PolySpatial or ConstSpatial")
        is_trig = [isinstance(f.spatial, TrigSpatial) for _, f in factors]
        # slot -> index into factors
        order = sorted(range(len(factors)), key=lambda i: (not is_trig[i], factors[i][1].copy))
        n, nt = len(order), sum(is_trig)
        parts = [factors[i][1].spatial for i in order]
        self.dim, self.n_slots, self.n_trig, self.copies = dim, n, nt, ham.copies
        self.copy = np.array([factors[i][1].copy for i in order], dtype=int)
        self.profiles = tuple(factors[i][1].time for i in order)
        self.sweep_table = (None, None)  # the last RK4 sweep table, by its times' bytes
        self.frames: dict = {}

        trig, poly = range(nt), range(nt, n)
        self.trig_copy, self.poly_copy = self.copy[:nt], self.copy[nt:]
        self.freq = np.array([parts[s].freq for s in trig], dtype=float).reshape(len(trig), dim, 1)
        self.amp = np.array([parts[s].amp for s in trig], dtype=float)[:, None, None]
        self.phase = np.array([parts[s].phase for s in trig], dtype=float)[:, None, None]

        monos = []
        for s in poly:
            monos.append(parts[s].terms if isinstance(parts[s], PolySpatial) else ((parts[s].value_const, (0,) * dim),))
        # (monomial, slot, ...) tables, zero-padded to the widest polynomial;
        # d/dz_i of c z^e is (c e_i) z^(e - 1_i), zero exponents get coefficient 0
        width = max((len(m) for m in monos), default=0)
        coeff = np.zeros((width, len(poly)))
        exp = np.zeros((width, len(poly), dim), dtype=int)
        for p, m in enumerate(monos):
            for w, (c, es) in enumerate(m):
                coeff[w, p], exp[w, p] = c, es
        self.mono_coeff, self.mono_exp = coeff[..., None], exp[..., None]
        self.deriv_coeff = (coeff[..., None] * exp)[..., None]
        self.deriv_exp = np.maximum(exp[:, :, None, :] - np.eye(dim, dtype=int), 0)[..., None]

        # gradient coefficient per slot: the term's, times -2 pi amp for trig
        self.term_coeff = np.array([c for c, _ in ham.terms], dtype=float)[:, None]
        term = np.array([factors[i][0] for i in order], dtype=int)
        amp = np.ones(n)
        amp[:nt] = -TWO_PI * self.amp[:, 0, 0]
        self.grad_coeff = (self.term_coeff[term, 0] * amp)[:, None, None]

        # each term's slots and each slot's co-factors, in term order, padded
        # with the pad slot n
        slot_of = np.argsort(order)
        members = [[] for _ in ham.terms]
        for i, (k, _) in enumerate(factors):
            members[k].append(slot_of[i])
        self.slots = _padded(members, n, 1)
        others = _padded([[j for j in members[term[s]] if j != s] for s in range(n)], n, 0)
        self.others = list(others.T)
        # rank j: each copy's j-th slot in term order, the pad past its last
        by_copy = [[] for _ in range(ham.copies)]
        for i, (_, f) in enumerate(factors):
            by_copy[f.copy].append(slot_of[i])
        self.ranks = list(_padded(by_copy, n, 1).T)
        self.block = max(1, BLOCK_ELEMENTS // ((n + 1) * dim))

    def table(self, times: np.ndarray) -> tuple:
        """The weight table at a 1-D times array, from one call per profile:
        time-profile values per slot and the pad 1, (S + 1, 1, len(times)),
        and the gradient coefficients times them.  Column j serves the rows
        at times[j], a one-column table every row; profiles give an element
        bitwise the same value in a one-element and a longer array (not
        always at a 0-d time), so a time gets the same weights in any table."""
        w = np.stack([p(times) for p in self.profiles] + [np.ones(times.shape)])[:, None]
        return w, self.grad_coeff * w[:-1]

    def blockwise(self, z, t, fn, tail: tuple, grad: bool = False) -> np.ndarray:
        """fn(zc, w) over row blocks of z (..., copies, dim), zc a batch-last
        block (copies, dim, rows) and w the weights of its rows, the pair
        (weights, gradient weights) with grad; fn returns (*tail, rows) and
        the result has shape (..., *tail).  t is a weight table, or a float
        or per-row times that it is built at."""
        lead = z.shape[:-2]
        zb = z.reshape(-1, *z.shape[-2:])
        if not isinstance(t, tuple):
            t = np.asarray(t, float)
            t = self.table(np.broadcast_to(t, lead).reshape(-1) if t.ndim else t.reshape(1))
        per_row = t[0].shape[-1] != 1
        rows_first = (len(tail),) + tuple(range(len(tail)))
        out = np.empty((len(zb),) + tail)
        for lo in range(0, len(zb), self.block):
            wb = tuple(a[..., lo : lo + self.block] for a in t) if per_row else t
            out[lo : lo + self.block] = fn(
                np.ascontiguousarray(zb[lo : lo + self.block].transpose(1, 2, 0)), wb if grad else wb[0]
            ).transpose(rows_first)
        return out.reshape(lead + tail)

    def phases(self, zc):
        """Trig slot phases (slots, 1, rows) of the copy array (copies, dim,
        rows), None without trig slots."""
        if not len(self.trig_copy):
            return None
        p = zc[self.trig_copy] * self.freq
        ph = p[:, :1] + p[:, 1:2]
        for i in range(2, self.dim):
            ph += p[:, i : i + 1]
        ph *= TWO_PI
        ph += self.phase
        return ph

    def values(self, zc, ph, w) -> np.ndarray:
        """Slot values times their time weights, (S + 1, 1, rows) ending in
        the pad 1."""
        nt, n = self.n_trig, self.n_slots
        v = np.empty((n + 1, 1, zc.shape[-1]))
        if ph is not None:
            np.multiply(self.amp, np.cos(ph), out=v[:nt])
        if len(self.poly_copy):
            v[nt:n, 0] = _sum0(self.mono_coeff * np.prod(zc[self.poly_copy] ** self.mono_exp, axis=2))
        v[n] = 1.0
        v *= w
        return v

    def value(self, z, t):
        def block(zc, w):
            v = self.values(zc, self.phases(zc), w)[:, 0]
            terms = self.term_coeff * v[self.slots[:, 0]]
            for j in range(1, self.slots.shape[1]):
                terms = terms * v[self.slots[:, j]]
            return _sum0(terms)

        return self.blockwise(z, t, block, ())

    def field(self, z, t, signs=None):
        """grad H at z of shape (..., copies, dim); given a level's sign
        vector, the signed field eps_j * FIELD_SIGN * J grad_j H instead."""
        return self.blockwise(z, t, self.stage(signs), (self.copies, self.dim), grad=True)

    def stage(self, signs=None):
        """The field kernel, frame(signs) bound: block(zc, weights) maps a
        C-ordered copy array (copies, dim, rows) and its rows' columns of a
        weight table to the field there, (copies, dim, rows)."""
        direction, dcoeff, dexp = self.frame(signs)
        nt, n = self.n_trig, self.n_slots
        first, *rest = self.ranks

        def block(zc, weights):
            w, scale = weights
            ph = self.phases(zc)
            if self.others:
                v = self.values(zc, ph, w)
                for col in self.others:
                    scale = scale * v[col]
            g = np.empty((n + 1, self.dim, zc.shape[-1]))
            if ph is not None:
                np.multiply(np.sin(ph), direction, out=g[:nt])
            if len(self.poly_copy):
                g[nt:n] = _sum0(dcoeff * np.prod(zc[self.poly_copy][:, None] ** dexp, axis=3))
            g[:n] *= scale
            g[n] = 0.0
            out = g[first]
            for src in rest:
                out += g[src]
            return out

        return block

    def frame(self, signs):
        """Trig direction table and polynomial derivative coefficients and
        exponents: the gradient's for signs None, else with the J column
        roll, FIELD_SIGN and the level's signs folded in."""
        frame = self.frames.get(signs)
        if frame is None:
            frame = (self.freq, self.deriv_coeff, self.deriv_exp)
            if signs is not None:
                half = self.dim // 2
                cols = np.roll(np.arange(self.dim), half)  # J: (g_x, g_y) -> (-g_y, g_x)
                sign = FIELD_SIGN * np.asarray(signs, float)[:, None] * np.repeat([-1.0, 1.0], half)
                # C order like the gradient's tables: ufuncs keep their
                # operands' layout, and the layout decides the order in which
                # _sum0 adds one-row slices
                frame = tuple(
                    np.ascontiguousarray(a)
                    for a in (
                        self.freq[:, cols] * sign[self.trig_copy, :, None],
                        self.deriv_coeff[:, :, cols] * sign[self.poly_copy, :, None],
                        self.deriv_exp[:, :, cols],
                    )
                )
            self.frames[signs] = frame
        return frame


def _padded(lists, pad: int, min_width: int) -> np.ndarray:
    """Index lists as rows of one integer table, padded with pad."""
    out = np.full((len(lists), max([min_width] + [len(x) for x in lists])), pad, dtype=int)
    for i, x in enumerate(lists):
        out[i, : len(x)] = x
    return out


# Orientation of the Hamiltonian field relative to J grad H.  The displayed
# systems are symbolic in X and match either choice; the action functional
# (minus area minus perturbation) singles one out: its critical points must
# be the Hamiltonian orbits, and the directional-derivative consistency test
# selects -1 (the classical q' = dH/dp, p' = -dH/dq orientation).
FIELD_SIGN = -1.0


def vector_field(ham, level: LevelStructure, z, t):
    """Copy-j component eps_j * X of grad_j H, the Hamiltonian field for the
    signed product form.  t is a float, an array of per-row times, or a
    weight table of ham's program (_Compiled.table)."""
    if ham.level != level.level:
        raise ValueError("Hamiltonian level does not match the level structure")
    z = np.asarray(z, float)
    return ham._program(z.shape[-1]).field(z, t, level.sign_vector)


# ---------------------------------------------------------------------------
# lifting


def lift(base: StructuredHamiltonian, chain: TransformChain, variant: str = "derived") -> StructuredHamiltonian:
    """Lifts a 1-periodic base Hamiltonian along the chain: sum_j
    |tau_j'(t)| H(z_j, tau_j(t)) over the copies j, tau_j the copy time
    maps, whose rate weight the change of variables in the perturbation
    integral forces.  variant "printed" swaps in the alternative
    halving-recursion maps (standard chains only).
    """
    if base.level != 0:
        raise ValueError("lift starts from a level-0 Hamiltonian")
    if variant == "derived":
        taus = tuple(copy_time_map(chain, m) for m in range(2**chain.level))
    elif variant == "printed":
        if not chain.is_standard():
            raise ValueError("the printed-recursion variant is defined for standard chains only")
        taus = tuple(printed_time_maps(chain.level))
    else:
        raise ValueError(f"unknown lift variant {variant!r}")
    terms = []
    for c, factors in base.terms:
        if len(factors) != 1:
            raise ValueError("base Hamiltonians are single-factor per term at level 0")
        f = factors[0]
        terms.extend((c, (Factor(j, f.spatial, LiftTime(f.time, tau)),)) for j, tau in enumerate(taus))
    return StructuredHamiltonian(chain.level, tuple(terms))
