"""Structured Hamiltonians on product levels, their vector fields, and lifts.

A structured Hamiltonian is a sum of weighted products of per-copy factors,
each factor a closed-form spatial part times a time profile.  The
Hamiltonian vector field uses the convention X_H = J grad H per copy, signed
by the level's alternating sign vector.  Lifting a base Hamiltonian along a
chain distributes it over the copies, reading each copy's time through its
copy time map and weighting by that map's rate so perturbation integrals
pull back exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .geometry import LevelStructure
from .transforms import AffineMap, TransformChain, copy_time_map, copy_time_map_printed

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# spatial parts


@dataclass(frozen=True)
class TrigSpatial:
    """amp * cos(2 pi freq . z + phase); integer freq keeps it torus-valued."""

    amp: float
    freq: tuple[int, ...]
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "freq", tuple(int(f) for f in self.freq))

    def value(self, z):
        ph = TWO_PI * (np.asarray(z, float) @ np.asarray(self.freq, float)) + self.phase
        return self.amp * np.cos(ph)

    def grad(self, z):
        z = np.asarray(z, float)
        f = np.asarray(self.freq, float)
        ph = TWO_PI * (z @ f) + self.phase
        return (-self.amp * TWO_PI * np.sin(ph))[..., None] * f

    def to_json(self):
        return {"kind": "trig", "amp": self.amp, "freq": list(self.freq), "phase": self.phase}


@dataclass(frozen=True)
class PolySpatial:
    """Sum of monomials c * prod z_i^{e_i}, given as ((c, (e_1, ..)), ...)."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(c), tuple(int(e) for e in es)) for c, es in self.terms)
        )

    def value(self, z):
        z = np.asarray(z, float)
        out = np.zeros(z.shape[:-1])
        for c, es in self.terms:
            out += c * np.prod(z ** np.asarray(es), axis=-1)
        return out

    def grad(self, z):
        z = np.asarray(z, float)
        out = np.zeros_like(z)
        for c, es in self.terms:
            for i, e in enumerate(es):
                if e == 0:
                    continue
                des = list(es)
                des[i] -= 1
                out[..., i] += c * e * np.prod(z ** np.asarray(des), axis=-1)
        return out

    def to_json(self):
        return {"kind": "poly", "terms": [[c, list(es)] for c, es in self.terms]}


@dataclass(frozen=True)
class ConstSpatial:
    value_const: float = 1.0

    def value(self, z):
        return np.full(np.asarray(z, float).shape[:-1], self.value_const)

    def grad(self, z):
        return np.zeros_like(np.asarray(z, float))

    def to_json(self):
        return {"kind": "const", "value": self.value_const}


# ---------------------------------------------------------------------------
# time profiles


@dataclass(frozen=True)
class ConstTime:
    value_const: float = 1.0

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
        return TrigSpatial(data["amp"], tuple(data["freq"]), data.get("phase", 0.0))
    if kind == "poly":
        return PolySpatial(tuple((c, tuple(es)) for c, es in data["terms"]))
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

    def value(self, z_copy, t):
        return self.spatial.value(z_copy) * np.asarray(self.time(t))

    def grad(self, z_copy, t):
        return self.spatial.grad(z_copy) * np.asarray(self.time(t))[..., None]

    def to_json(self):
        return {"copy": self.copy + 1, "space": self.spatial.to_json(), "time": self.time.to_json()}

    @staticmethod
    def from_json(data: dict) -> "Factor":
        return Factor(data["copy"] - 1, spatial_from_json(data["space"]), time_from_json(data["time"]))


@dataclass(frozen=True, eq=False)
class StructuredHamiltonian:
    """Sum of weighted products of per-copy factors at a fixed level."""

    level: int
    terms: tuple  # ((coeff, (Factor, ...)), ...)

    def __post_init__(self):
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

    @property
    def copies(self) -> int:
        return 2**self.level

    def value(self, z, t):
        z = np.asarray(z, float)
        out = np.zeros(z.shape[:-2])
        for c, factors in self.terms:
            term = np.full(z.shape[:-2], c)
            for f in factors:
                term = term * f.value(z[..., f.copy, :], t)
            out = out + term
        return out

    def gradient(self, z, t):
        z = np.asarray(z, float)
        g = np.zeros_like(z)
        for c, factors in self.terms:
            # Factor.value / Factor.grad, with each time profile read once
            times = [np.asarray(f.time(t)) for f in factors]
            vals = []
            if len(factors) > 1:
                vals = [f.spatial.value(z[..., f.copy, :]) * w for f, w in zip(factors, times)]
            for i, f in enumerate(factors):
                others = np.full(z.shape[:-2], c)
                for j, v in enumerate(vals):
                    if j != i:
                        others = others * v
                g[..., f.copy, :] += others[..., None] * (f.spatial.grad(z[..., f.copy, :]) * times[i][..., None])
        return g

    def to_json(self):
        return {
            "level": self.level,
            "terms": [
                {"coeff": c, "factors": [f.to_json() for f in factors]} for c, factors in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "StructuredHamiltonian":
        terms = tuple(
            (term["coeff"], tuple(Factor.from_json(f) for f in term["factors"]))
            for term in data["terms"]
        )
        return StructuredHamiltonian(data["level"], terms)


def apply_j(vec):
    """Standard complex structure per copy: (g_x, g_y) -> (-g_y, g_x)."""
    vec = np.asarray(vec, float)
    d = vec.shape[-1] // 2
    out = np.empty_like(vec)
    out[..., :d] = -vec[..., d:]
    out[..., d:] = vec[..., :d]
    return out


# Orientation of the Hamiltonian field relative to J grad H.  The displayed
# systems are symbolic in X and match either choice; the action functional
# (minus area minus perturbation) singles one out: its critical points must
# be the Hamiltonian orbits, and the directional-derivative consistency test
# selects -1 (the classical q' = dH/dp, p' = -dH/dq orientation).
FIELD_SIGN = -1.0


def hamiltonian_field(grad):
    """X_H from a gradient: the configured orientation of J grad H."""
    return FIELD_SIGN * apply_j(grad)


def vector_field(ham, level: LevelStructure, z, t):
    """Copy-j component eps_j * X of grad_j H, the Hamiltonian field for the
    signed product form."""
    if ham.level != level.level:
        raise ValueError("Hamiltonian level does not match the level structure")
    g = ham.gradient(z, t)
    return hamiltonian_field(g) * level.signs[:, None]


def fd_gradient_oracle(ham, level: LevelStructure, z, t, h: float = 1e-5):
    """Signed field from central differences of ham.value; test oracle only."""
    z = np.asarray(z, float)
    g = np.zeros_like(z)
    for j in range(z.shape[-2]):
        for i in range(z.shape[-1]):
            zp = z.copy()
            zm = z.copy()
            zp[..., j, i] += h
            zm[..., j, i] -= h
            g[..., j, i] = (ham.value(zp, t) - ham.value(zm, t)) / (2 * h)
    return hamiltonian_field(g) * level.signs[:, None]


# ---------------------------------------------------------------------------
# lifting


def lift(base: StructuredHamiltonian, chain: TransformChain, variant: str = "derived") -> StructuredHamiltonian:
    """Lifts a 1-periodic base Hamiltonian along the chain.

    The lift is sum_j |tau_j'(t)| H(z_j, tau_j(t)) over the copies j, with
    tau_j the copy time maps: every base term becomes one single-factor term
    per copy whose time profile is LiftTime(time, tau_j).  The weight is the
    constant 1/2^n for the standard chain and is forced in general by the
    change of variables in the perturbation integral.

    variant "printed" swaps in the alternative halving-recursion copy time
    maps (standard chains only); kept for the side-by-side comparison.
    """
    if base.level != 0:
        raise ValueError("lift starts from a level-0 Hamiltonian")
    if chain.level == 0:
        taus = (AffineMap(1, 0),)
    elif variant == "derived":
        taus = tuple(copy_time_map(chain, m) for m in range(2**chain.level))
    elif variant == "printed":
        if not chain.is_standard():
            raise ValueError("the printed-recursion variant is defined for standard chains only")
        taus = tuple(copy_time_map_printed(chain.level, m) for m in range(2**chain.level))
    else:
        raise ValueError(f"unknown lift variant {variant!r}")
    terms = []
    for c, factors in base.terms:
        if len(factors) != 1:
            raise ValueError("base Hamiltonians are single-factor per term at level 0")
        f = factors[0]
        terms.extend((c, (Factor(j, f.spatial, LiftTime(f.time, tau)),)) for j, tau in enumerate(taus))
    return StructuredHamiltonian(chain.level, tuple(terms))
