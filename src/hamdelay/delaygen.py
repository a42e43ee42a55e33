"""Symbolic compiler from structured Hamiltonians to piecewise delay equations.

On the segment owned by copy k the pulled-back loop satisfies

    v'(t) = rate_k(t) * sum_p c_p [prod_{m in S_p, m != k}
            F^{p,m}(v(delta^k_m(t) mod 1), theta_k(t))] * X_{F^{p,k}}(v(t), theta_k(t))

with all intervals, time profiles, and delayed-time maps exact rationals
for affine chains, whose delayed times already lie in [0, 1].  The sum is
rate_k(t) * FIELD_SIGN * J grad_k K(Z, theta_k(t)) with Z_k = v(t) and
Z_m = v(delta^k_m(t) mod 1), so rhs_eval evaluates it through K's compiled
program, and the descriptor keeps K for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .hamiltonians import Factor, StructuredHamiltonian
from .transforms import (
    AffineMap,
    DiscreteCurve,
    SegmentEntry,
    TransformChain,
    _endpoint_json,
    delayed_time,
    format_rational,
)


@dataclass(frozen=True, eq=False)
class DelayCoefficient:
    """One delayed prefactor: the factor of copy m read at delta(t) mod 1."""

    factor: Factor
    delay: object

    def to_json(self):
        delay = self.delay.to_json() if hasattr(self.delay, "to_json") else {"kind": "numeric"}
        return {"factor": self.factor.to_json(), "delay": delay, "mod1": True}


@dataclass(frozen=True, eq=False)
class DelayTermSpec:
    term_index: int
    coeff: float
    driver: Factor
    coefficients: tuple[DelayCoefficient, ...]

    def to_json(self):
        return {
            "term": self.term_index,
            "coeff": self.coeff,
            "driver": self.driver.to_json(),
            "coefficients": [c.to_json() for c in self.coefficients],
        }


@dataclass(frozen=True, eq=False)
class SegmentEquation(SegmentEntry):
    """The equation rows active on one copy's interval: its segment-table
    entry and the delay terms driven there."""

    terms: tuple[DelayTermSpec, ...]

    def constant_rate(self):
        """Exact rate for affine segments, None otherwise."""
        if self.theta.is_affine:
            return self.sign * self.theta.slope
        return None

    def to_json(self):
        out = super().to_json()  # copy, interval, theta, sign
        del out["sign"]
        rate = self.constant_rate()
        out["rate"] = format_rational(rate) if rate is not None else None
        out["terms"] = [t.to_json() for t in self.terms]
        return out


@dataclass(frozen=True, eq=False)
class DelayEquationDescriptor:
    """The full piecewise system, segments ordered along [0, 1]."""

    level: int
    chain: TransformChain
    segments: tuple[SegmentEquation, ...]
    hamiltonian: StructuredHamiltonian = field(repr=False)

    def breakpoints(self) -> tuple:
        return tuple(s.lo for s in self.segments[1:])

    def to_json(self):
        return {
            "level": self.level,
            "chain": self.chain.to_json(),
            "segments": [s.to_json() for s in self.segments],
        }


def generate(K: StructuredHamiltonian, chain: TransformChain) -> DelayEquationDescriptor:
    """Compiles the delay equation satisfied by pullbacks of K's chords."""
    if K.level != chain.level:
        raise ValueError("Hamiltonian level does not match the chain length")
    table = chain.table
    segments = []
    for entry in table.by_interval():
        k = entry.copy
        terms = []
        for p, (c, factors) in enumerate(K.terms):
            by_copy = {f.copy: f for f in factors}
            if k not in by_copy:
                continue
            coeffs = tuple(
                DelayCoefficient(f, delayed_time(chain, k, f.copy))
                for f in factors
                if f.copy != k
            )
            terms.append(DelayTermSpec(p, c, by_copy[k], coeffs))
        segments.append(SegmentEquation(k, entry.lo, entry.hi, entry.theta, entry.sign, tuple(terms)))
    return DelayEquationDescriptor(chain.level, chain, tuple(segments), K)


class RhsPlan(NamedTuple):
    """The time-only part of rhs_eval at N times (rhs_plan)."""

    reads: np.ndarray  # the times each row reads, one column per copy, (N, copies)
    owner: np.ndarray  # each row's owning copy k
    weights: tuple  # K's weight table at the chord times theta_k
    rate: np.ndarray  # each row's rate_k, (N, 1)


def rhs_plan(d: DelayEquationDescriptor, ts: np.ndarray, dim: int) -> RhsPlan:
    """The plan of rhs_eval at the times ts for loops in dim coordinates.
    A row is owned by the segment of its time (mod 1, right limit at
    breakpoints), of copy k, and reads the owning copy k at ts mod 1, a
    copy m sharing a term with k at delayed_time(chain, k, m)(ts) mod 1,
    any other copy at ts mod 1.  rhs_eval and the periodic solver's
    sparsity pattern both read through this rule."""
    ts = np.mod(ts, 1.0)
    los = np.array([float(s.lo) for s in d.segments])
    idx = np.clip(np.searchsorted(los, ts, side="right") - 1, 0, len(d.segments) - 1)
    reads = np.repeat(ts[:, None], 2**d.level, axis=1)
    theta, rate = np.empty(len(ts)), np.empty(len(ts))
    for i, seg in enumerate(d.segments):
        sel = np.flatnonzero(idx == i)
        if len(sel):  # a bisection inverse takes no empty array
            delays = {c.factor.copy: c.delay for term in seg.terms for c in term.coefficients}
            for m, delay in delays.items():
                reads[sel, m] = np.mod(np.asarray(delay(ts[sel])), 1.0)
            theta[sel], rate[sel] = seg.theta(ts[sel]), seg.rate(ts[sel])
    owner = np.array([seg.copy for seg in d.segments])[idx]
    return RhsPlan(reads, owner, d.hamiltonian._program(dim).table(theta), rate[:, None])


def rhs_eval(d: DelayEquationDescriptor, loop, t, plan: RhsPlan | None = None):
    """Right-hand side along a periodic loop (a level-0 DiscreteCurve, or
    any object with a .space and .evaluate(times) giving (len(times), 1,
    dim)) at times t through plan, rhs_plan(d, t, dim) unless given: one
    evaluate call reads every copy at the plan's reads, and one compiled
    field call on its weight table gives each row its owning copy's
    rate_k * FIELD_SIGN * J grad_k K."""
    interp = loop.interpolant() if isinstance(loop, DiscreteCurve) else loop
    if plan is None:
        plan = rhs_plan(d, np.atleast_1d(np.asarray(t, float)), loop.space.dim)
    reads = plan.reads
    z = interp.evaluate(reads.ravel())[:, 0, :].reshape(*reads.shape, -1)
    K = d.hamiltonian
    X = K._program(z.shape[-1]).field(z, plan.weights, (1,) * K.copies)
    out = plan.rate * X[np.arange(len(X)), plan.owner]
    return out[0] if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# rendering


def _delay_expr(c: DelayCoefficient) -> str:
    # delayed_time maps already take values in [0,1], the canonical mod-1 form
    if isinstance(c.delay, AffineMap):
        return c.delay.pretty()
    return "delta(t)"


def _latex_frac(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        sign = "-" if x < 0 else ""
        return rf"{sign}\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"
    return f"{float(x):g}"


# Per format: the chord time of a segment whose theta is not affine, a
# number, the interval, the row of a segment with no terms, with a constant
# rate and with a varying one, a delayed factor, the driving field, the
# separator of a term's parts, and the lines before and after the rows.
_TEMPLATES = {
    "text": {
        "theta": "theta(t)",
        "frac": lambda x: str(_endpoint_json(x)),
        "interval": "t in [{lo}, {hi}]",
        "zero": "v'(t) = 0,  {interval}",
        "constant": "({inv_rate}) v'(t) = {body},  {interval}",
        "varying": "v'(t) = rate(t) * [{body}],  {interval}",
        "delayed": "F{copy}[{time}](v({delay}))",
        "driver": "X_F{copy}[{time}](v(t))",
        "sep": " ",
        "around": ([], []),
    },
    "latex": {
        "theta": r"\theta(t)",
        "frac": _latex_frac,
        "interval": r"t \in \left[{lo}, {hi}\right]",
        "zero": r"\dot v(t) = 0, & {interval} \\",
        "constant": r"{inv_rate}\,\dot v(t) = {body}, & {interval} \\",
        "varying": r"\dot v(t) = \rho(t)\left[{body}\right], & {interval} \\",
        "delayed": r"F^{{{copy}}}_{{{time}}}\bigl(v({delay})\bigr)",
        "driver": r"X_{{F^{{{copy}}}_{{{time}}}}}(v(t))",
        "sep": r"\, ",
        "around": ([r"\begin{array}{ll}"], [r"\end{array}"]),
    },
}


def _term(term: DelayTermSpec, time: str, tpl: dict) -> str:
    parts = [f"{term.coeff:g}"] if term.coeff != 1.0 else []
    parts += [tpl["delayed"].format(copy=c.factor.copy + 1, time=time, delay=_delay_expr(c)) for c in term.coefficients]
    parts.append(tpl["driver"].format(copy=term.driver.copy + 1, time=time))
    return tpl["sep"].join(parts)


def render(d: DelayEquationDescriptor, fmt: str = "text") -> str:
    """Deterministic rendering; rows ordered by interval left endpoint."""
    if fmt == "json":
        return json.dumps(d.to_json(), indent=2)
    if fmt not in _TEMPLATES:
        raise ValueError(f"unknown render format {fmt!r}")
    tpl = _TEMPLATES[fmt]
    rows = []
    for seg in d.segments:
        time = seg.theta.pretty() if isinstance(seg.theta, AffineMap) else tpl["theta"]
        interval = tpl["interval"].format(lo=tpl["frac"](seg.lo), hi=tpl["frac"](seg.hi))
        body = " + ".join(_term(t, time, tpl) for t in seg.terms)
        rate = seg.constant_rate()
        kind = "zero" if not seg.terms else "varying" if rate is None else "constant"
        inv_rate = "" if rate is None else tpl["frac"](1 / rate)
        rows.append(tpl[kind].format(interval=interval, body=body, inv_rate=inv_rate))
    before, after = tpl["around"]
    return "\n".join(before + rows + after)
