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

import copy
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
    reduction over slots), so every non-NaN result of a row does not depend
    on the batch it rides in: the one block-wide choice, full or trimmed
    polynomial derivative sums, moves at most the sign of an exact zero.  A
    NaN's sign and payload follow the memory layout (which operand's NaN a
    numpy loop returns depends on where the element falls), so they can
    differ between batches.  stage(signs, rows) is that kernel bound to
    blocks of a row count (_Kernel), and a kernel's bind(zc, out) the stage
    of one block's input and output arrays; the program keeps the last two
    kernels per frame, a batch's full blocks and its tail, which repeated
    calls at those row counts share (the sweeps of a Newton solve, rhs_eval
    at the nodes of a periodic solve).
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
        self.kernels: dict = {}  # per frame, the last two kernels bound, by row count

        trig, poly = range(nt), range(nt, n)
        self.trig_copy, self.poly_copy = self.copy[:nt], self.copy[nt:]
        self.freq = np.array([parts[s].freq for s in trig], dtype=float).reshape(len(trig), dim, 1)
        self.amp = np.array([parts[s].amp for s in trig], dtype=float)[:, None, None]
        self.phase = np.array([parts[s].phase for s in trig], dtype=float)[:, None, None]
        # the phases read zc[trig_read]: the view of copies c0 .. c1 - 1
        # against (c1 - c0, k, dim, rows) constants when those copies hold
        # k trig slots each and no other copy holds one, else a gather
        span = _copy_span(self.trig_copy)
        self.trig_read, self.trig_shape = self.trig_copy, (nt,)
        if span is not None:
            self.trig_read, self.trig_shape = (slice(*span[:2]), None), (span[1] - span[0], span[2])

        monos = []
        for s in poly:
            monos.append(parts[s].terms if isinstance(parts[s], PolySpatial) else ((parts[s].value_const, (0,) * dim),))
        # (monomial, slot, ...) tables, zero-padded to the widest polynomial
        # and at least one monomial wide; d/dz_i of c z^e is (c e_i)
        # z^(e - 1_i), zero exponents get coefficient 0
        width = max([1] + [len(m) for m in monos])
        coeff = np.zeros((width, len(poly)))
        exp = np.zeros((width, len(poly), dim), dtype=int)
        for p, m in enumerate(monos):
            for w, (c, es) in enumerate(m):
                coeff[w, p], exp[w, p] = c, es
        self.deriv_coeff = coeff[..., None] * exp
        if len(poly):
            # the index tables of every frame: the roll only permutes their columns
            deriv_exp = np.maximum(exp[:, :, None, :] - np.eye(dim, dtype=int), 0)
            self.mono_coeff, self.monomials = coeff, self.sums(exp)
            self.trim_order, self.trim_keep, trimmed_exp, self.trim_limit = _trim(self.deriv_coeff, deriv_exp)
            self.deriv_sums, self.trimmed_sums = self.sums(deriv_exp), self.sums(trimmed_exp)

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
        # rank j: each copy's j-th slot in term order, the pad past its last;
        # when copies c0 .. c1 - 1 hold k slots each, rank j of copy c being
        # slot (c - c0) k + j, and the others none, the ranks are views of
        # the slot array and the other copies read +0.0
        by_copy = [[] for _ in range(ham.copies)]
        for i, (_, f) in enumerate(factors):
            by_copy[f.copy].append(slot_of[i])
        ranks = _padded(by_copy, n, 1)
        self.ranks = list(ranks.T)
        span = _copy_span(self.copy)
        if span is not None and not np.array_equal(ranks[span[0] : span[1]], np.arange(n).reshape(span[1] - span[0], -1)):
            span = None
        self.rank_span = span
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

    def blockwise(self, z, t, signs, tail: tuple) -> np.ndarray:
        """The kernel of stage(signs) over row blocks of z (..., copies,
        dim), called once per block on the (weights, gradient weights)
        columns of its rows: the Hamiltonian for tail (), else the field,
        tail (copies, dim).  The result has shape (..., *tail).  t is a
        weight table, or a float or per-row times that it is built at."""
        lead = z.shape[:-2]
        zb = z.reshape(-1, *z.shape[-2:])
        if not isinstance(t, tuple):
            t = np.asarray(t, float)
            t = self.table(np.broadcast_to(t, lead).reshape(-1) if t.ndim else t.reshape(1))
        per_row = t[0].shape[-1] != 1
        rows_first = (len(tail),) + tuple(range(len(tail)))
        out = np.empty((len(zb),) + tail)
        for lo in range(0, len(zb), self.block):
            rows = zb[lo : lo + self.block]
            wb = tuple(a[..., lo : lo + self.block] for a in t) if per_row else t
            out[lo : lo + self.block] = self.stage(signs, len(rows))(rows, wb, not tail).transpose(rows_first)
        return out.reshape(lead + tail)

    def value(self, z, t):
        return self.blockwise(z, t, None, ())

    def field(self, z, t, signs=None):
        """grad H at z of shape (..., copies, dim); given a level's sign
        vector, the signed field eps_j * FIELD_SIGN * J grad_j H instead."""
        return self.blockwise(z, t, signs, (self.copies, self.dim))

    def stage(self, signs, rows: int) -> "_Kernel":
        """The kernel of frame(signs) bound to blocks of rows rows: one of
        the last two bound for the frame if it has that row count, else a
        new one, which replaces the older."""
        kernels = self.kernels.setdefault(signs, {})
        kernel = kernels.get(rows)
        if kernel is None:
            if len(kernels) == 2:
                del kernels[next(iter(kernels))]
            kernel = kernels[rows] = _Kernel(self, self.frame(signs), rows)
        return kernel

    def frame(self, signs):
        """Trig direction table and the full and the trimmed polynomial
        derivative sums, each a pair (sums, coefficient table) (None, None
        without polynomial slots): the gradient's for signs None, else with
        the J column roll, FIELD_SIGN and the level's signs folded in;
        multiplying by +-1 is exact.  The index tables come from the
        program, permuted by the roll."""
        frame = self.frames.get(signs)
        if frame is None:
            direction, dcoeff, cols = self.freq, self.deriv_coeff, None
            if signs is not None:
                half = self.dim // 2
                cols = np.roll(np.arange(self.dim), half)  # J: (g_x, g_y) -> (-g_y, g_x)
                sign = FIELD_SIGN * np.asarray(signs, float)[:, None] * np.repeat([-1.0, 1.0], half)
                direction = self.freq[:, cols] * sign[self.trig_copy, :, None]
                dcoeff = self.deriv_coeff[:, :, cols] * sign[self.poly_copy]
            frame = (direction, None, None)
            if len(self.poly_copy):
                order = self.trim_order if cols is None else self.trim_order[:, :, cols]
                trimmed = np.take_along_axis(dcoeff, order, 0)[: self.trim_keep]
                frame = (direction, (self.deriv_sums.permuted(cols), dcoeff), (self.trimmed_sums.permuted(cols), trimmed))
            self.frames[signs] = frame
        return frame

    def sums(self, exp: np.ndarray) -> "_MonomialSums":
        """The sums of an exponent table (monomial, slot, ..., dim) over the
        polynomial slots, each entry reading its slot's copy."""
        first = (self.poly_copy * self.dim).reshape((-1,) + (1,) * (exp.ndim - 3))
        return _MonomialSums(exp, np.broadcast_to(first, exp.shape[:-1]), self.copies * self.dim)


def _rowwise(a: np.ndarray, rows: int) -> np.ndarray:
    """A constant a of shape (..., 1) repeated C-ordered to (..., rows)."""
    if rows == 1:
        return a
    out = np.empty(a.shape[:-1] + (rows,))
    out[...] = a
    return out


def _coordinate_major(a: np.ndarray) -> np.ndarray:
    """The view of a (..., dim, rows) with the coordinate axis first, as
    np.moveaxis(a, -2, 0) gives it, without that call's axis checks."""
    m = a.ndim
    return a.transpose((m - 2, *range(m - 2), m - 1))


def _copy_span(copies: np.ndarray):
    """(c0, c1, k) when the slot copies run c0 .. c1 - 1 in order, k slots
    each, so a slot array reshapes to (c1 - c0, k, ...); else None."""
    if not len(copies) or copies[-1] < copies[0]:
        return None
    c0, c1 = int(copies[0]), int(copies[-1]) + 1
    k = len(copies) // (c1 - c0)
    return (c0, c1, k) if np.array_equal(copies, np.repeat(np.arange(c0, c1), k)) else None


class _Kernel:
    """The kernel of a program and frame bound to row blocks of one size:
    every per-slot constant is broadcast C-ordered to (..., rows), and the
    scratch arrays and their views are made here once.  bind(zc, out) binds
    it to a block's input and output arrays and returns the stage, whose
    calls run same-shape ufuncs with out=, each product and sum with the
    operands and in the order of the slot expressions it replaces.

    The stages write the kernel's arrays, so a kernel serves one block at a
    time, and each call writes every scratch entry it reads, except the pad
    value 1 and the pad gradient 0 set here: a weight table's pad row is 1,
    so v *= w keeps the one, and nothing writes the other.  A kernel and its
    stages copy the program tables they read and hold no reference to the
    program or to the kernel, which keep them: such a cycle would keep a
    spent Hamiltonian's arrays until the cyclic collector ran."""

    def __init__(self, prog: _Compiled, frame, rows: int):
        n, nt, dim = prog.n_slots, prog.n_trig, prog.dim
        self.n, self.nt, self.dim, self.copies = n, nt, dim, prog.copies
        self.trig_read, self.others, self.ranks, self.rank_span = prog.trig_read, prog.others, prog.ranks, prog.rank_span
        self.slots, self.term_coeff = prog.slots, prog.term_coeff
        self.two_pi = np.array(TWO_PI)  # a 0-d operand: numpy converts a float on every call
        self.v = np.empty((n + 1, 1, rows))
        self.v[n] = 1.0
        if nt:
            # the products freq_i z_i coordinate-major, (dim, *trig_shape,
            # rows): each coordinate's are one contiguous operand of the sum
            self.freq = _rowwise(_coordinate_major(prog.freq.reshape(prog.trig_shape + (dim, 1))), rows)
            self.p = np.empty(self.freq.shape)
            self.ph, self.wave = np.empty((nt, 1, rows)), np.empty((nt, 1, rows))
            self.phase, self.amp = _rowwise(prog.phase, rows), _rowwise(prog.amp, rows)
        if len(prog.poly_copy):
            self.monomials = prog.monomials.bind(prog.mono_coeff, rows)
        direction, full, trimmed = frame
        self.g = np.empty((n + 1, dim, rows))
        self.g[n] = 0.0
        if prog.others:
            self.scale, self.cofactor = np.empty((n, 1, rows)), np.empty((n, 1, rows))
        self.direction = _rowwise(direction, rows)
        # a block reads the trimmed derivative sums when its sum of squares
        # is below limit^2 (NaN is not), else the full ones: a coordinate
        # not below the limit squares to at least limit^2, rounded, and a
        # sum of non-negative terms is at least each of them in any order;
        # with no limit (inf) the full sums are never read
        self.trimmed = self.full = None
        if trimmed is not None:
            self.trimmed, self.bound = trimmed[0].bind(trimmed[1], rows), prog.trim_limit * prog.trim_limit
            self.full = full[0].bind(full[1], rows) if prog.trim_limit < math.inf else None
        if prog.rank_span is None:
            self.gathered = np.empty((self.copies, dim, rows))
        else:
            c0, c1, k = prog.rank_span
            ranked = self.g[:n].reshape(c1 - c0, k, dim, rows)
            self.ranked = [ranked[:, j] for j in range(k)]
        self.stages: dict = {}  # by value and block shape: an input array and the stage bound to it

    def __call__(self, block, weights, value: bool = False) -> np.ndarray:
        """The field (copies, dim, rows), or the Hamiltonian (rows,) given
        value, at rows-first rows block (rows, copies, dim) and their
        weight columns.  block is copied batch-last into an input array of
        the kernel; that array and the stage bound to it, with an output
        array for the field, are made on first use and kept for later
        calls."""
        key = value, block.shape
        if key not in self.stages:
            zc = np.empty(block.shape[1:] + block.shape[:1])
            self.stages[key] = zc, self.bind(zc, None if value else np.empty(zc.shape))
        zc, stage = self.stages[key]
        np.copyto(zc, block.transpose(1, 2, 0))
        return stage(*weights)

    def bind(self, zc, out=None, then=()):
        """The stage at a C-ordered copy array zc (copies, dim, rows), a
        function stage(w, scale) of its rows' columns of a weight table.
        Given out, a call writes the field of the frame there, then runs
        each ufunc call (f, a, b, c) of then as f(a, b, c), and returns out;
        without out it returns the Hamiltonian, (rows,).  Every view a call
        reads or writes is made here, and out's copies outside the copy span
        are zeroed here; a call writes only the span.  The trimmed or full
        polynomial derivative sums are chosen per call."""
        n, nt, dim = self.n, self.nt, self.dim
        v, g, others, slots, term_coeff = self.v, self.g, self.others, self.slots, self.term_coeff
        value, two_pi = out is None, self.two_pi
        freq = p = ph = wave = phase = amp = direction = read = trig_index = gathered_trig = v_trig = g_trig = None
        p0 = p1 = p_rest = ph_sum = None
        if nt:
            freq, p, ph, wave, phase, amp, direction = self.freq, self.p, self.ph, self.wave, self.phase, self.amp, self.direction
            p0, p1, p_rest, ph_sum = p[0], p[1], p[2:], ph.reshape(p[0].shape)
            v_trig, g_trig = v[:nt], g[:nt]
            if isinstance(self.trig_read, tuple):
                read = _coordinate_major(zc[self.trig_read])
            else:
                trig_index, gathered_trig = self.trig_read, np.empty((nt, dim, zc.shape[-1]))
                read = _coordinate_major(gathered_trig)
        mono = self.monomials(zc, v[nt:n, 0]) if nt < n and (value or others) else None
        scale_out = cofactor = None
        if others and not value:
            scale_out, cofactor = self.scale, self.cofactor
        trimmed = full = bound = None
        if self.trimmed is not None and not value:
            trimmed, bound = self.trimmed(zc, g[nt:n]), self.bound
            full = self.full(zc, g[nt:n]) if self.full is not None else None
        gn, ranks, gathered, ranked, span = g[:n], self.ranks, None, None, None
        if not value:
            if self.rank_span is None:
                gathered = self.gathered
            else:
                c0, c1, k = self.rank_span
                ranked, span = self.ranked, out[c0:c1]
                out[:c0] = 0.0
                out[c1:] = 0.0

        def stage(w, scale):
            if nt:
                if trig_index is not None:
                    zc.take(trig_index, axis=0, out=gathered_trig, mode="clip")
                np.multiply(read, freq, out=p)
                np.add(p0, p1, out=ph_sum)
                for col in p_rest:
                    np.add(ph_sum, col, out=ph_sum)
                np.multiply(ph, two_pi, out=ph)
                np.add(ph, phase, out=ph)
            if value or others:
                if nt:
                    np.multiply(amp, np.cos(ph, out=wave), out=v_trig)
                if mono is not None:
                    mono()
                np.multiply(v, w, out=v)
                if value:
                    terms = term_coeff * v[slots[:, 0], 0]
                    for j in range(1, slots.shape[1]):
                        terms = terms * v[slots[:, j], 0]
                    return _sum0(terms)
                # mode "clip" only skips the buffered output that "raise"
                # makes: every index is in range
                scale = np.multiply(scale, v.take(others[0], axis=0, out=cofactor, mode="clip"), out=scale_out)
                for col in others[1:]:
                    scale *= v.take(col, axis=0, out=cofactor, mode="clip")
            if nt:
                np.multiply(np.sin(ph, out=wave), direction, out=g_trig)
            if trimmed is not None:
                (full if full is not None and not np.vdot(zc, zc) < bound else trimmed)()
            if ranked is None:
                np.multiply(gn, scale, out=gn)
                g.take(ranks[0], axis=0, out=out, mode="clip")
                for src in ranks[1:]:
                    np.add(out, g.take(src, axis=0, out=gathered, mode="clip"), out=out)
            elif len(ranked) == 1:  # a copy's gradient is its one slot's
                np.multiply(gn, scale, out=span)
            else:
                np.multiply(gn, scale, out=gn)
                np.add(ranked[0], ranked[1], out=span)
                for rank in ranked[2:]:
                    np.add(span, rank, out=span)
            for f, a, b, c in then:
                f(a, b, c)
            return out

        return stage


def _trim(coeff: np.ndarray, exp: np.ndarray) -> tuple:
    """The trimmed form of a derivative table (monomial, slot, column): the
    order along the monomials that puts per (slot, column) the
    nonzero-coefficient entries first, the entries to keep, the trimmed
    exponent table and the limit below which it is exact.  It reads every
    zero-coefficient entry as 0 * 1 and keeps per (slot, column) its other
    entries in order, then as few of those 0 * 1 as the widest (slot,
    column) needs.  That drops the entries that are 0 by structure, such as
    d(y^2)/dx, and their pow calls.  Where every product it drops is finite,
    it moves a sum only by +-0 (an exact zero may change sign, which
    compares equal).  The limit is 2^k, k = 1023 // d for the largest total
    degree d of a zero-coefficient entry, inf without one of degree >= 1:
    with every |z_i| < 2^k, each factor |z_i|^e_i rounds to at most 2^(k
    e_i) and a product to at most 2^1023, so no dropped product overflows.
    Folding signs and rolling columns keeps which coefficients are zero, so
    one order serves every frame."""
    zero = coeff == 0
    degree = exp.sum(-1)[zero]
    limit = 2.0 ** (1023 // int(degree.max())) if degree.any() else math.inf
    order = np.argsort(zero, axis=0, kind="stable")  # per (slot, column): nonzero entries first
    keep = max(1, int((~zero).sum(0).max(initial=0)))
    exp = np.where(zero[..., None], 0, exp)
    return order, keep, np.take_along_axis(exp, order[..., None], 0)[:keep], limit


class _MonomialSums:
    """sum_w c[w] prod_i z_i^e[w, i] over a table of exponent vectors (W,
    *shape, dim), each entry reading the coordinates of one copy of a block
    (copies, dim, rows), and a coefficient table (W, *shape) given to bind.

    One exact product rule: an exponent 0 reads 1.0 and an exponent 1 the
    coordinate, which is what pow gives for every number, inf and NaN
    included; only exponents >= 2 call pow.  An entry's factors other than
    1.0 multiply in coordinate order, the sequential product np.prod forms
    with its exact factors 1.0 left out.  The sum adds the entries in index
    order like _sum0; a table of one entry gives its term itself, so an
    exact zero keeps its sign."""

    def __init__(self, exp: np.ndarray, first: np.ndarray, n_rows: int):
        self.n_rows = n_rows
        # the rows of a block's source table: its coordinates, then 1.0, then
        # the powers, one per distinct (coordinate, exponent >= 2)
        powers: dict = {}
        factors = [
            [r + i if e == 1 else n_rows + 1 + powers.setdefault((r + i, e), len(powers)) for i, e in enumerate(es) if e]
            for es, r in zip(exp.reshape(-1, exp.shape[-1]).tolist(), first.ravel().tolist())
        ]
        index = _padded(factors, n_rows, 1)  # short entries end in the 1.0 row
        self.index = [col.reshape(exp.shape[:-1]) for col in index.T]
        self.extended = bool((index >= n_rows).any())
        self.pow_rows = np.array([r for r, _ in powers], dtype=int)
        self.pow_exp = np.array([e for _, e in powers], dtype=float)[:, None]

    def permuted(self, cols) -> "_MonomialSums":
        """These sums with the last entry axis permuted by cols (None: as is)."""
        if cols is None:
            return self
        out = copy.copy(self)
        out.index = [index[..., cols] for index in self.index]
        return out

    def bind(self, coeff: np.ndarray, rows: int):
        """at(zc, out) -> sums(): sums() writes the sums with coefficients
        coeff at a block zc (copies, dim, rows) into out (*shape, rows).  The
        coefficient rows, the scratch arrays and their views are made here
        once, the views of zc and out by at."""
        n_rows, index, pow_rows, pow_exp = self.n_rows, self.index, self.pow_rows, self.pow_exp
        coeff = _rowwise(coeff[..., None], rows)
        p, factor = np.empty(coeff.shape), np.empty(coeff.shape)  # the products and one factor of each
        first, later, spare = (coeff[0], p[0]), [(coeff[w], p[w]) for w in range(1, len(p))], factor[0]
        src = coords = pows = bases = None
        if self.extended:
            src = np.empty((n_rows + 1 + len(pow_rows), rows))
            src[n_rows] = 1.0
            coords, pows, bases = src[:n_rows], src[n_rows + 1 :], np.empty((len(pow_rows), rows))
            # an exponent of the powers' own shape: np.power squares by its
            # own fast path, not by pow, where it reads the exponent with
            # stride 0 (a one-element exponent; a one-column one at some sizes)
            pow_exp = np.ascontiguousarray(np.broadcast_to(pow_exp, bases.shape))

        def at(zc: np.ndarray, out: np.ndarray):
            s = zc.reshape(n_rows, rows)
            table = s if src is None else src

            def sums() -> None:
                if src is not None:
                    coords[...] = s
                    np.power(s.take(pow_rows, axis=0, out=bases, mode="clip"), pow_exp, out=pows)
                # the indices are in range: mode "clip" only skips the
                # buffered output that "raise" makes
                table.take(index[0], axis=0, out=p, mode="clip")
                for i in index[1:]:
                    np.multiply(p, table.take(i, axis=0, out=factor, mode="clip"), out=p)
                np.multiply(*first, out=out)
                for c, pw in later:
                    np.add(out, np.multiply(c, pw, out=spare), out=out)

            return sums

        return at


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
