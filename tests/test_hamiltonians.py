import numpy as np
import pytest
from fractions import Fraction as Fr

from hamdelay.geometry import PhaseSpace, build_level
from hamdelay.transforms import AffineMap, DiscreteCurve, TransformChain
from hamdelay.hamiltonians import (
    BumpTime,
    ConstSpatial,
    ConstTime,
    Factor,
    LiftTime,
    PolySpatial,
    StructuredHamiltonian,
    TabulatedTime,
    TrigSpatial,
    TrigTime,
    fd_gradient_oracle,
    lift,
    vector_field,
)
from hamdelay.transforms import copy_time_map, copy_time_map_printed, psi_chain


def morse_base(eps=0.05):
    return StructuredHamiltonian(
        0,
        (
            (1.0, (Factor(0, TrigSpatial(eps, (1, 0))),)),
            (1.0, (Factor(0, TrigSpatial(eps, (0, 1))),)),
        ),
    )


def test_trig_spatial_value_and_grad():
    f = TrigSpatial(0.5, (1, -2), 0.3)
    z = np.array([0.2, 0.7])
    ph = 2 * np.pi * (0.2 - 1.4) + 0.3
    assert np.isclose(f.value(z), 0.5 * np.cos(ph))
    g = f.grad(z)
    assert np.allclose(g, -0.5 * 2 * np.pi * np.sin(ph) * np.array([1, -2]))


def test_poly_spatial_grad():
    # pi (x^2 + y^2)
    f = PolySpatial(((np.pi, (2, 0)), (np.pi, (0, 2))))
    z = np.array([1.5, -0.5])
    assert np.isclose(f.value(z), np.pi * 2.5)
    assert np.allclose(f.grad(z), 2 * np.pi * z)


def test_time_profiles_periodic():
    for prof in (TrigTime(0.4, 2, 0.3, 0.5), BumpTime(0.3, 0.2, 1.0), TabulatedTime((0.1, 0.5, 0.9, 0.4))):
        ts = np.linspace(0, 1, 7)
        assert np.allclose(prof(ts), prof(ts + 1.0), atol=1e-12)


def test_bump_is_smooth_and_compact():
    b = BumpTime(0.5, 0.25, 2.0)
    assert b(0.5) == 2.0
    assert b(0.7) > 0
    assert b(0.76) == 0.0
    assert b(0.1) == 0.0


def test_eval_examples(torus):
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, ConstSpatial(2.5)),)),))
    z = np.random.default_rng(0).random((2, 2))
    assert np.isclose(K.value(z, 0.3), 2.5)
    empty = StructuredHamiltonian(1, ())
    assert empty.value(z, 0.3) == 0.0


def test_eval_product_splits(rng):
    F = TrigSpatial(0.4, (1, 0), 0.1)
    G = TrigSpatial(0.7, (0, 2), 0.9)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, F), Factor(1, G))),))
    z = rng.random((2, 2))
    assert np.isclose(K.value(z, 0.1), F.value(z[0]) * G.value(z[1]))


def test_term_copy_uniqueness():
    F = Factor(0, ConstSpatial(1.0))
    with pytest.raises(ValueError):
        StructuredHamiltonian(1, ((1.0, (F, F)),))
    with pytest.raises(ValueError):
        StructuredHamiltonian(0, ((1.0, (Factor(1, ConstSpatial(1.0)),)),))


def test_vector_field_signs_level1(torus, rng):
    """Component 1 carries +X of the z1-slice, component 2 carries -X."""
    from hamdelay.hamiltonians import hamiltonian_field

    lev = build_level(torus, 1)
    F = TrigSpatial(0.7, (2, 1), 0.3)
    z = rng.random((2, 2))
    K1 = StructuredHamiltonian(1, ((1.0, (Factor(0, F),)),))
    X = vector_field(K1, lev, z, 0.0)
    assert np.allclose(X[0], hamiltonian_field(F.grad(z[0])))
    assert np.allclose(X[1], 0.0)
    K2 = StructuredHamiltonian(1, ((1.0, (Factor(1, F),)),))
    X2 = vector_field(K2, lev, z, 0.0)
    assert np.allclose(X2[1], -hamiltonian_field(F.grad(z[1])))
    assert np.allclose(X2[0], 0.0)


def test_vector_field_constant_k(torus, rng):
    lev = build_level(torus, 2)
    K = StructuredHamiltonian(2, ((3.0, (Factor(0, ConstSpatial(1.0)),)),))
    z = rng.random((4, 2))
    assert np.allclose(vector_field(K, lev, z, 0.5), 0.0)


def test_vector_field_product_expansion(torus, rng):
    """Four signed components of a full product match the hand expansion."""
    from hamdelay.hamiltonians import hamiltonian_field

    lev = build_level(torus, 2)
    Fs = [TrigSpatial(0.5, (1, 0), 0.2 * j) for j in range(4)]
    K = StructuredHamiltonian(2, ((1.0, tuple(Factor(j, Fs[j]) for j in range(4))),))
    z = rng.random((4, 2))
    X = vector_field(K, lev, z, 0.0)
    vals = [Fs[j].value(z[j]) for j in range(4)]
    signs = (1, -1, -1, 1)
    for j in range(4):
        others = np.prod([vals[m] for m in range(4) if m != j])
        assert np.allclose(X[j], signs[j] * others * hamiltonian_field(Fs[j].grad(z[j])))


def test_fd_oracle_matches_analytic(torus, rng):
    lev = build_level(torus, 2)
    K = StructuredHamiltonian(
        2,
        (
            (0.7, (Factor(0, TrigSpatial(0.8, (1, 1), 0.1), TrigTime(0.3, 1, 0.0, 1.0)),
                   Factor(2, TrigSpatial(0.5, (0, 2), 0.4)))),
            (0.3, (Factor(1, TrigSpatial(0.6, (2, 0), 0.9)),
                   Factor(3, TrigSpatial(0.4, (1, -1), 0.2)))),
        ),
    )
    z = rng.random((4, 2))
    X = vector_field(K, lev, z, 0.37)
    Xfd = fd_gradient_oracle(K, lev, z, 0.37, h=1e-5)
    rel = np.max(np.abs(X - Xfd)) / max(1.0, np.max(np.abs(X)))
    assert rel <= 1e-7


def test_fd_oracle_exact_on_linear(plane, rng):
    lev = build_level(plane, 1)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, PolySpatial(((2.0, (1, 0)), (3.0, (0, 1))))),)),))
    z = rng.random((2, 2))
    X = vector_field(K, lev, z, 0.0)
    Xfd = fd_gradient_oracle(K, lev, z, 0.0)
    assert np.max(np.abs(X - Xfd)) <= 1e-10


def test_fd_oracle_zero_on_constant(torus, rng):
    lev = build_level(torus, 1)
    K = StructuredHamiltonian(1, ((1.0, (Factor(0, ConstSpatial(4.0)),)),))
    assert np.max(np.abs(fd_gradient_oracle(K, lev, rng.random((2, 2)), 0.0))) == 0.0


def test_lift_standard_n1_formula(torus, rng):
    H = StructuredHamiltonian(
        0, ((1.0, (Factor(0, TrigSpatial(0.5, (1, 0)), TrigTime(0.3, 1, 0.2, 0.7)),)),)
    )
    L = lift(H, TransformChain.standard(1))
    z = rng.random((2, 2))
    for t in (0.0, 0.31, 0.77, 1.0):
        lhs = L.value(z, t)
        assert np.isclose(lhs, 0.5 * H.value(z[0:1], t / 2) + 0.5 * H.value(z[1:2], 1 - t / 2))


def test_lift_zero_hamiltonian(torus, rng):
    H = StructuredHamiltonian(0, ())
    L = lift(H, TransformChain.standard(2))
    assert L.value(rng.random((4, 2)), 0.5) == 0.0


def test_lift_perturbation_pullback(torus, rng):
    """The lifted perturbation integral equals the base integral on images."""
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.25)
    H = morse_base(0.3)
    errs = []
    for N in (512, 1024):
        loop = DiscreteCurve.from_function(torus, f, N)
        base = _trapz(H, loop)
        for n in (1, 2, 3):
            ch = TransformChain.standard(n)
            w = psi_chain(ch, loop)
            lifted = _trapz(lift(H, ch), w)
            errs.append(abs(lifted - base))
    assert max(errs[:3]) < 1e-4
    # halving the step contracts at second order or better
    assert max(errs[3:]) <= max(errs[:3]) / 3


def _trapz(ham, curve):
    ts = curve.times()
    vals = np.asarray(ham.value(curve.samples, ts))
    h = ts[1] - ts[0]
    return float(h * (0.5 * vals[0] + np.sum(vals[1:-1]) + 0.5 * vals[-1]))


def test_lift_general_chain_weights(torus, rng):
    """Rational chains need the rate weights, not the uniform 1/2^n."""
    from tests.test_transforms import trig_loop_fn

    f = trig_loop_fn(rng, scale=0.25)
    H = morse_base(0.3)
    ch = TransformChain.affine([Fr(1, 3)])
    loop = DiscreteCurve.from_function(torus, f, 3 * 512)
    w = psi_chain(ch, loop)
    assert abs(_trapz(lift(H, ch), w) - _trapz(H, loop)) < 1e-4


def test_lift_matches_copy_sum_oracle(rng):
    """lift(H, chain) is sum_j |tau_j'(t)| H(z_j, tau_j(t)) over the copies."""
    H = StructuredHamiltonian(
        0,
        (
            (0.8, (Factor(0, TrigSpatial(0.5, (1, 0), 0.2), TrigTime(0.4, 1, 0.0, 1.0)),)),
            (0.3, (Factor(0, PolySpatial(((1.0, (2, 1)),)), BumpTime(0.3, 0.4)),)),
        ),
    )
    std2, r13 = TransformChain.standard(2), TransformChain.affine([Fr(1, 3)])
    cases = [
        (std2, "derived", [copy_time_map(std2, m) for m in range(4)]),
        (std2, "printed", [copy_time_map_printed(2, m) for m in range(4)]),
        (r13, "derived", [copy_time_map(r13, m) for m in range(2)]),
    ]
    for chain, variant, taus in cases:
        K = lift(H, chain, variant)
        z = rng.random((5, len(taus), 2))
        for t in (0.1, 0.5, 0.9, rng.random(5)):
            w = [np.abs(np.asarray(tau.deriv(t))) for tau in taus]
            value = sum(w[j] * H.value(z[:, j : j + 1, :], tau(t)) for j, tau in enumerate(taus))
            grad = np.stack(
                [w[j][..., None] * H.gradient(z[:, j : j + 1, :], tau(t))[:, 0, :] for j, tau in enumerate(taus)],
                axis=1,
            )
            assert np.allclose(K.value(z, t), value, rtol=1e-13, atol=1e-15)
            assert np.allclose(K.gradient(z, t), grad, rtol=1e-13, atol=1e-15)


def test_lift_printed_variant_guard():
    H = morse_base()
    with pytest.raises(ValueError):
        lift(H, TransformChain.affine([Fr(1, 3)]), variant="printed")


def test_energy_conservation_autonomous(torus, rng):
    from hamdelay.solvers import IntegratorConfig, integrate

    lev = build_level(torus, 1)
    K = StructuredHamiltonian(
        1,
        ((0.05, (Factor(0, TrigSpatial(1.0, (1, 0), 0.3)), Factor(1, TrigSpatial(1.0, (0, 1), 0.8)))),),
    )
    z0 = rng.random((2, 2))
    path = integrate(K, lev, z0, IntegratorConfig(2**10))
    vals = K.value(path.samples, 0.0)
    assert np.max(np.abs(vals - vals[0])) <= 1e-8


def test_hamiltonian_json_roundtrip():
    K = StructuredHamiltonian(
        1,
        (
            (0.7, (Factor(0, TrigSpatial(0.8, (1, 1), 0.1), TrigTime(0.3, 1, 0.0, 1.0)),)),
            (0.2, (Factor(1, PolySpatial(((1.0, (2, 0)),)), ConstTime(2.0)),)),
        ),
    )
    back = StructuredHamiltonian.from_json(K.to_json())
    z = np.random.default_rng(1).random((2, 2))
    assert np.isclose(back.value(z, 0.4), K.value(z, 0.4))
    assert np.allclose(back.gradient(z, 0.4), K.gradient(z, 0.4))


def test_lift_time_profile():
    prof = LiftTime(ConstTime(3.0), AffineMap(Fr(-1, 4), 1))
    assert np.isclose(prof(0.2), 0.75)
