import numpy as np
import pytest
from fractions import Fraction as Fr

from hamdelay.geometry import PhaseSpace, build_level, embed_diagonal_params
from hamdelay.transforms import DiscreteCurve, TransformChain, psi_chain
from hamdelay.hamiltonians import (
    ConstSpatial,
    ConstTime,
    Factor,
    StructuredHamiltonian,
    TrigSpatial,
    TrigTime,
    lift,
)
from hamdelay.action import (
    NonContractibleError,
    action_chord,
    action_loop,
    chord_area,
    chord_lifts,
    loop_area,
    pushforward_gap,
    unwrap_loop,
)
from tests.test_transforms import trig_loop_fn


def circle(plane, n=512, reverse=False):
    sgn = -1.0 if reverse else 1.0
    return DiscreteCurve.from_function(
        plane, lambda t: np.hstack([np.cos(2 * np.pi * sgn * t), np.sin(2 * np.pi * sgn * t)]), n
    )


ZERO_H = StructuredHamiltonian(0, ())


def test_constant_loop_zero_area(torus):
    v = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.3, 0.8]), 64)
    assert loop_area(v) == 0.0
    assert action_loop(ZERO_H, v) == 0.0


def test_unit_circle_area(plane):
    v = circle(plane)
    assert abs(loop_area(v) - np.pi) < 1e-4
    assert abs(action_loop(ZERO_H, v) + np.pi) < 1e-4


def test_circle_vectorized_matches_per_node(plane):
    fast = circle(plane, 64).samples[:, 0, :]
    slow = [[np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)] for t in np.linspace(0.0, 1.0, 65)]
    assert np.array_equal(fast, np.array(slow))


def test_loop_area_convergence(plane):
    errs = [abs(loop_area(circle(plane, n)) - np.pi) for n in (128, 256, 512)]
    assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3


def test_constant_hamiltonian_action(torus, rng):
    f = trig_loop_fn(rng, scale=0.2)
    v = DiscreteCurve.from_function(torus, f, 256)
    Hc = StructuredHamiltonian(0, ((1.0, (Factor(0, ConstSpatial(2.5)),)),))
    assert abs(action_loop(Hc, v) - (-loop_area(v) - 2.5)) < 1e-12


def test_non_contractible_loop_rejected(torus):
    v = DiscreteCurve.from_function(torus, lambda t: np.hstack([t % 1.0, np.full_like(t, 0.25)]), 64)
    with pytest.raises(NonContractibleError):
        loop_area(v)
    _, winding = unwrap_loop(v)
    assert winding.tolist() == [1, 0]


def test_chord_area_constant(torus):
    lev = build_level(torus, 2)
    p = np.tile(np.array([0.4, 0.9]), (65, 4, 1))
    w = DiscreteCurve(torus, 2, p, False)
    assert chord_area(w, lev) == 0.0
    assert action_chord(ZERO_H, w, lev) == -0.0


def test_chord_area_equals_loop_area(plane, rng):
    """Signed per-copy line integrals reproduce the enclosed loop area."""
    v = circle(plane, 1024)
    for n in (1, 2):
        ch = TransformChain.standard(n)
        w = psi_chain(ch, v)
        lev = build_level(plane, n)
        assert abs(chord_area(w, lev) - loop_area(v)) < 1e-4


def test_reversal_negates_areas(plane):
    v, vr = circle(plane), circle(plane, reverse=True)
    assert abs(loop_area(v) + loop_area(vr)) < 1e-12
    ch = TransformChain.standard(1)
    lev = build_level(plane, 1)
    assert abs(chord_area(psi_chain(ch, v), lev) + chord_area(psi_chain(ch, vr), lev)) < 1e-12


def test_chord_area_torus_gluing(torus, rng):
    """Torus lifts glue consistently for transforms of contractible loops."""
    f = trig_loop_fn(rng, scale=0.3)
    v = DiscreteCurve.from_function(torus, f, 512)
    for n in (1, 2, 3):
        ch = TransformChain.standard(n)
        w = psi_chain(ch, v)
        lev = build_level(torus, n)
        assert abs(chord_area(w, lev) - loop_area(v)) < 1e-4


def test_chord_area_rejects_winding(torus):
    v = DiscreteCurve.from_function(torus, lambda t: np.hstack([t % 1.0, np.full_like(t, 0.25)]), 64)
    ch = TransformChain.standard(1)
    lev = build_level(torus, 1)
    samples = np.empty((65, 2, 2))
    ts = v.times()
    for k, t in enumerate(ts):
        samples[k, 0] = [(t / 2) % 1.0, 0.25]
        samples[k, 1] = [(1 - t / 2) % 1.0, 0.25]
    w = DiscreteCurve(torus, 1, samples, False)
    with pytest.raises(NonContractibleError):
        chord_area(w, lev)


@pytest.mark.parametrize("n", [2, 3])
def test_chord_lifts_reject_winding_transforms(torus, n):
    """Transforms of a winding loop glue pair by pair, but the walk around
    the matching cycle comes back shifted by the winding."""
    v = DiscreteCurve.from_function(torus, lambda t: np.hstack([t % 1.0, np.full_like(t, 0.25)]), 64)
    w = psi_chain(TransformChain.standard(n), v)
    with pytest.raises(NonContractibleError, match="does not close"):
        chord_lifts(w, build_level(torus, n))


@pytest.mark.parametrize("n,sample,copy", [(2, 0, 1), (2, -1, 2), (3, 0, 5), (3, -1, 7)])
def test_chord_lifts_reject_non_integer_gluing(torus, rng, n, sample, copy):
    """A matched boundary pair that differs by a non-integer cannot glue."""
    v = DiscreteCurve.from_function(torus, trig_loop_fn(rng, scale=0.3), 64)
    w = psi_chain(TransformChain.standard(n), v)
    lev = build_level(torus, n)
    assert chord_lifts(w, lev).shape == w.samples.shape
    samples = w.samples.copy()
    samples[sample, copy, 0] += 0.01
    with pytest.raises(NonContractibleError, match="does not glue"):
        chord_lifts(DiscreteCurve(torus, n, samples, False), lev)


def test_lambda_cancellation_signs(torus):
    """Matched diagonal pairs cancel in the boundary primitive exactly."""
    for n in range(1, 6):
        lev = build_level(torus, n)
        for a, b in lev.matching0 + lev.matching1:
            assert lev.sign_vector[a] + lev.sign_vector[b] == 0


def test_pushforward_gap_zero_cases(torus):
    v = DiscreteCurve.from_function(torus, lambda t: np.full((len(t), 2), [0.3, 0.8]), 64)
    for n in (1, 2):
        assert pushforward_gap(ZERO_H, v, TransformChain.standard(n)) < 1e-14


def test_pushforward_identity_small_gap(torus, rng):
    f = trig_loop_fn(rng, scale=0.25)
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, TrigSpatial(0.4, (1, 0), 0.3), TrigTime(0.4, 1, 0.1, 1.0)),)),),
    )
    for n in (1, 2, 3):
        gaps = []
        for N in (1024, 2048):
            v = DiscreteCurve.from_function(torus, f, N)
            gaps.append(pushforward_gap(H, v, TransformChain.standard(n)))
        assert gaps[0] < 5e-5
        assert gaps[1] < gaps[0] / 2.5


def test_pushforward_identity_plane(plane, rng):
    f = trig_loop_fn(rng, scale=0.4)
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, TrigSpatial(0.5, (1, 1), 0.2), TrigTime(0.3, 1, 0.0, 1.0)),)),),
    )
    v = DiscreteCurve.from_function(plane, f, 2048)
    assert pushforward_gap(H, v, TransformChain.standard(2)) < 2e-5


def test_pushforward_rational_chain(torus, rng):
    """The rate-weighted lift keeps the identity on non-halving chains."""
    f = trig_loop_fn(rng, scale=0.25)
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, TrigSpatial(0.4, (0, 1), 0.9), TrigTime(0.3, 1, 0.4, 1.0)),)),),
    )
    ch = TransformChain.affine([Fr(1, 3), Fr(1, 2)])
    v = DiscreteCurve.from_function(torus, f, ch.grid_denominator() * 256)
    assert pushforward_gap(H, v, ch) < 5e-5


def test_printed_variant_documented_discrepancy(torus, rng):
    """The alternative tau recursion breaks the identity at levels >= 2."""
    f = trig_loop_fn(rng, scale=0.25)
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, TrigSpatial(0.4, (1, 0), 0.3), TrigTime(0.5, 1, 0.0, 1.0)),)),),
    )
    v = DiscreteCurve.from_function(torus, f, 4096)
    g1d = pushforward_gap(H, v, TransformChain.standard(1), variant="derived")
    g1p = pushforward_gap(H, v, TransformChain.standard(1), variant="printed")
    assert abs(g1d - g1p) < 1e-12  # level 1: the recursions agree
    for n in (2, 3):
        gd = pushforward_gap(H, v, TransformChain.standard(n), variant="derived")
        gp = pushforward_gap(H, v, TransformChain.standard(n), variant="printed")
        assert gp > 100 * gd


def test_pushforward_gap_tuple_matches_single_names(torus, plane, rng):
    """A tuple of variants gives bitwise the gaps of one-name calls and of
    A_K(Psi^n v) - A_H(v) through action_chord and action_loop, on standard
    chains at levels 1-3 (both variants), affine r = 1/3 chains at levels
    1-2 (derived only), torus and plane, and the zero Hamiltonian."""
    H = StructuredHamiltonian(
        0,
        ((1.0, (Factor(0, TrigSpatial(0.4, (1, 0), 0.3), TrigTime(0.5, 1, 0.2, 1.0)),)),
         (0.7, (Factor(0, TrigSpatial(0.3, (1, -1), 1.1), TrigTime(0.2, 2, 0.4, 1.0)),))),
    )
    both = ("derived", "printed")
    cases = [(TransformChain.standard(n), both) for n in (1, 2, 3)]
    cases += [(TransformChain.affine([Fr(1, 3)] * n), ("derived",)) for n in (1, 2)]
    for space in (torus, plane):
        f = trig_loop_fn(rng, scale=0.25)
        for chain, variants in cases:
            v = DiscreteCurve.from_function(space, f, chain.grid_denominator() * 64)
            w, level = psi_chain(chain, v), build_level(space, chain.level)
            for ham in (H, ZERO_H):
                gaps = pushforward_gap(ham, v, chain, variant=variants)
                assert isinstance(gaps, tuple) and len(gaps) == len(variants)
                for name, gap in zip(variants, gaps):
                    single = pushforward_gap(ham, v, chain, variant=name)
                    direct = abs(action_chord(lift(ham, chain, variant=name), w, level) - action_loop(ham, v))
                    assert isinstance(single, float)
                    assert gap.hex() == single.hex() == direct.hex()


def test_action_chord_scaling(torus, rng):
    """Scaling K scales only the perturbation term of the chord action."""
    from hamdelay.action import _h_quadrature

    f = trig_loop_fn(rng, scale=0.2)
    v = DiscreteCurve.from_function(torus, f, 256)
    ch = TransformChain.standard(1)
    w = psi_chain(ch, v)
    lev = build_level(torus, 1)
    K = StructuredHamiltonian(
        1, ((1.0, (Factor(0, TrigSpatial(0.4, (1, 0), 0.3)), Factor(1, TrigSpatial(0.5, (0, 1), 0.8)))),)
    )
    lam = 2.5
    K2 = StructuredHamiltonian(1, tuple((lam * c, fs) for c, fs in K.terms))
    area = chord_area(w, lev)
    quad = _h_quadrature(K, w.samples, w.times())
    assert abs(action_chord(K2, w, lev) - (-area - lam * quad)) < 1e-12


def test_level_zero_chain_is_identity(torus, rng):
    f = trig_loop_fn(rng, scale=0.2)
    v = DiscreteCurve.from_function(torus, f, 64)
    ch = TransformChain(())
    assert psi_chain(ch, v) is v
    from hamdelay.transforms import phi_chain

    assert phi_chain(ch, v) is v


def test_chord_criticality(torus):
    """Directional derivatives of the discrete action vanish at solved chords."""
    from hamdelay.solvers import IntegratorConfig, NewtonConfig, solve_chord, Chord as ChordT

    K = StructuredHamiltonian(
        1,
        (
            (0.08, (Factor(0, TrigSpatial(0.3, (1, 0)), TrigTime(0.4, 1, 0.0, 1.0)),
                    Factor(1, TrigSpatial(0.3, (0, 1))))),
            (0.06, (Factor(0, TrigSpatial(0.3, (0, 1), 0.9)),
                    Factor(1, TrigSpatial(0.3, (1, 0), 0.9), TrigTime(0.3, 1, 1.1, 1.0)))),
        ),
    )
    lev = build_level(torus, 1)
    chord = solve_chord(K, lev, np.array([[0.2, 0.2]]), NewtonConfig(), IntegratorConfig(2**10))
    assert isinstance(chord, ChordT)
    w = chord.path
    rng = np.random.default_rng(5)
    base = action_chord(K, w, lev)
    ts = w.times()
    for _ in range(4):
        # admissible variation: a smooth loop variation pushed through the
        # transform is smooth per copy and diagonal-compatible at both ends
        dv = trig_loop_fn(rng, scale=0.5)
        var = np.zeros_like(w.samples)
        var[:, 0, :] = np.array([dv(t / 2) for t in ts])
        var[:, 1, :] = np.array([dv(1 - t / 2) for t in ts])
        eps = 1e-5
        wp = DiscreteCurve(torus, 1, w.samples + eps * var, False)
        wm = DiscreteCurve(torus, 1, w.samples - eps * var, False)
        deriv = (action_chord(K, wp, lev) - action_chord(K, wm, lev)) / (2 * eps)
        assert abs(deriv) <= 1e-4, deriv
    assert np.isfinite(base)
