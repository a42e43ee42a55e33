"""Per-object evaluations of Hamiltonians and of the delay right-hand side.

The package evaluates every Hamiltonian through its compiled program; these
are the straightforward definitions that the tests compare it against:
spatial parts and factors one at a time, the complex structure J, central
differences of the value, and the delay right-hand side by a loop over
segments, terms and factors.
"""

from __future__ import annotations

import numpy as np

from hamdelay.delaygen import DelayEquationDescriptor
from hamdelay.hamiltonians import FIELD_SIGN, TWO_PI, ConstSpatial, PolySpatial, TrigSpatial
from hamdelay.transforms import DiscreteCurve


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
    return hamiltonian_field(g) * level.signs[:, None]


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
