"""Action functionals on loops and chords, and the pushforward identity.

Areas are computed through the boundary primitive lambda = (1/2) sum
(x_i dy_i - y_i dx_i), never by filling disks: the signed sum of per-copy
line integrals equals the half-disk area because matched diagonal pairs
carry opposite signs, so the diagonal boundary segments contribute nothing.
Torus curves are lifted to the plane first; a lift that cannot be glued
consistently around the matching cycle means the loop is non-contractible.
"""

from __future__ import annotations

import numpy as np

from .geometry import LevelStructure, build_level
from .hamiltonians import lift
from .transforms import DiscreteCurve, TransformChain, psi_chain


class NonContractibleError(ValueError):
    """The curve has no consistent planar lift with zero winding."""


def unwrap_loop(loop: DiscreteCurve):
    """Continuous planar lift of a level-0 loop and its integer winding."""
    if loop.level != 0:
        raise ValueError("unwrap_loop expects a level-0 loop")
    lifted = loop.space.unwrap(loop.samples[:, 0, :])
    if loop.space.topology != "torus":
        return lifted, np.zeros(lifted.shape[1], dtype=int)
    winding_f = lifted[-1] - lifted[0]
    winding = np.round(winding_f).astype(int)
    if np.max(np.abs(winding_f - winding)) > 1e-6:
        raise ValueError("loop does not close up to tolerance")
    return lifted, winding


def _line_integral(samples: np.ndarray) -> float:
    """Trapezoid integral of lambda along an open planar path."""
    d = samples.shape[1] // 2
    x, y = samples[:, :d], samples[:, d:]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def loop_area(loop: DiscreteCurve) -> float:
    """Symplectic area enclosed by a contractible loop (boundary integral)."""
    lifted, winding = unwrap_loop(loop)
    if np.any(winding != 0):
        raise NonContractibleError(f"loop has winding {winding.tolist()}")
    return _line_integral(lifted)


def _h_quadrature(ham, samples: np.ndarray, ts: np.ndarray) -> float:
    """Trapezoid rule for the perturbation integral along sampled nodes."""
    vals = np.asarray(ham.value(samples, ts), dtype=float)
    h = ts[1] - ts[0]
    return float(h * (0.5 * vals[0] + np.sum(vals[1:-1]) + 0.5 * vals[-1]))


def action_loop(ham, loop: DiscreteCurve) -> float:
    """A_H(v) = -area(v) - int_0^1 H_t(v(t)) dt."""
    area = loop_area(loop)
    return -area - _h_quadrature(ham, loop.samples, loop.times())


def chord_lifts(path: DiscreteCurve, level: LevelStructure):
    """Per-copy planar lifts glued along the matching cycle: walking it
    from copy 0, each partner's lift is shifted by the integer that glues
    the matched boundary values, at sample 0 for matching0 and at sample -1
    for matching1.  A non-integer gap, or a walk that does not close with
    zero shift, raises NonContractibleError (the loop would wind).
    """
    lifted = path.space.unwrap(path.samples)
    if path.space.topology != "torus" or level.level == 0:
        return lifted
    partners = [{}, {}]
    for partner, pairs in zip(partners, (level.matching0, level.matching1)):
        for a, b in pairs:
            partner[a], partner[b] = b, a
    offsets = np.zeros(lifted.shape[1:])
    a = 0
    for step in range(level.copies):
        end = (0, -1)[step % 2]
        b = partners[step % 2][a]
        gap = lifted[end, a] + offsets[a] - lifted[end, b]
        shift = np.round(gap)
        if np.max(np.abs(gap - shift)) > 1e-6:
            raise NonContractibleError("matched boundary pair does not glue on the lift")
        if b == 0 and np.any(offsets[0] != shift):
            raise NonContractibleError("lift does not close around the matching cycle")
        offsets[b] = shift
        a = b
    return lifted + offsets[None, :, :]


def chord_area(path: DiscreteCurve, level: LevelStructure) -> float:
    """Half-disk area of a chord: signed sum of per-copy boundary integrals."""
    lifted = chord_lifts(path, level)
    return float(sum(level.sign_vector[j] * _line_integral(lifted[:, j, :]) for j in range(path.copies)))


def action_chord(ham, path: DiscreteCurve, level: LevelStructure) -> float:
    """A_K(w) = -half-disk area - int_0^1 K_t(w(t)) dt."""
    area = chord_area(path, level)
    return -area - _h_quadrature(ham, path.samples, path.times())


def pushforward_gap(ham, loop: DiscreteCurve, chain: TransformChain, variant: str | tuple = "derived") -> float | tuple:
    """|A_{H^n}(Psi^n v) - A_H(v)| at the loop's sampling resolution.

    variant is a tau variant name, which gives one gap, or a tuple of names,
    which gives a tuple of gaps in that order.  Only the lifted Hamiltonian
    depends on the variant: Psi^n v, its half-disk area and A_H(v) are
    computed once per call, and each gap is A_K(w) - A_H(v) by the same
    arithmetic as action_chord and action_loop."""
    names = (variant,) if isinstance(variant, str) else tuple(variant)
    w = psi_chain(chain, loop)
    area = chord_area(w, build_level(loop.space, chain.level))
    base = action_loop(ham, loop)
    ts = w.times()
    gaps = tuple(abs((-area - _h_quadrature(lift(ham, chain, variant=v), w.samples, ts)) - base) for v in names)
    return gaps[0] if isinstance(variant, str) else gaps

