"""Toolkit for Hamiltonian delay equations on product towers.

A Hamiltonian on the 2^n-fold product of a symplectic surface (or any
R^{2d} / T^{2d}) induces, through a chain of loop-to-path
reparametrizations, a piecewise delay differential equation on the base
space.  This package derives that equation symbolically, solves the
corresponding chord boundary value problems numerically, pulls chords
back to periodic delay orbits, and verifies the action-functional and
orbit-count relations between the two pictures.
"""

from .geometry import PhaseSpace, LevelStructure, build_level
from .transforms import (
    AffineMap,
    MonotoneSplineMap,
    ReparamPair,
    TransformChain,
    DiscreteCurve,
    psi_chain,
    phi_chain,
    copy_time_map,
    compare_tau_tables,
    delayed_time,
    resample,
    sup_distance,
)
from .hamiltonians import (
    TrigSpatial,
    PolySpatial,
    ConstSpatial,
    ConstTime,
    TrigTime,
    BumpTime,
    TabulatedTime,
    Factor,
    StructuredHamiltonian,
    lift,
    vector_field,
)
from .delaygen import DelayEquationDescriptor, generate, rhs_eval, render
from .action import (
    NonContractibleError,
    unwrap_loop,
    loop_area,
    action_loop,
    chord_area,
    action_chord,
    pushforward_gap,
)
from .solvers import (
    IntegratorConfig,
    NewtonConfig,
    GridSpec,
    Chord,
    OrbitSet,
    SolveFailure,
    aligned_steps,
    integrate,
    shoot_residual,
    solve_chord,
    enumerate_chords,
    pullback_chord,
    delay_residual,
    solve_periodic_delay,
)

__version__ = "0.1.0"
