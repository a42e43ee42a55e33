"""Phase spaces, product towers, and diagonal index matchings.

The base space is the plane R^{2d} or the torus R^{2d}/Z^{2d} with the
standard symplectic form.  Level n of the tower is the 2^n-fold product
carrying the alternating sign vector, and the two Lagrangian boundary
diagonals are stored purely combinatorially, as perfect matchings on the
copy indices.  All indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAX_LEVEL = 12
# the largest step or node count a config may ask for: every time grid is
# allocated per row, so larger grids exhaust memory instead of failing cleanly
MAX_NODES = 2**20
DIAG_TOL = 1e-9


@dataclass(frozen=True)
class PhaseSpace:
    """Base phase space, coordinates ordered (x_1..x_d, y_1..y_d)."""

    half_dim: int
    topology: str = "torus"

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValueError("half_dim must be at least 1")
        if self.topology not in ("plane", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    def normalize(self, coords):
        """Canonical representative; torus coordinates land in [0, 1)."""
        coords = np.asarray(coords, dtype=float)
        if self.topology == "torus":
            out = np.mod(coords, 1.0)
            # mod of a tiny negative rounds to exactly 1.0
            return np.where(out == 1.0, 0.0, out)
        return coords

    def wrapped_difference(self, a, b):
        """Representative of a - b, componentwise in (-1/2, 1/2] on the torus."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.topology == "torus":
            return d - np.ceil(d - 0.5)
        return d

    def distance(self, a, b) -> float:
        """Sup norm of the wrapped difference a - b."""
        return float(np.max(np.abs(self.wrapped_difference(a, b))))

    def distances(self, a, bs) -> np.ndarray:
        """distance(a, b) for every b along the first axis of bs, from one
        array expression; max and abs are exact, so each entry is bitwise
        the scalar call's."""
        return np.abs(self.wrapped_difference(a, bs)).max(axis=tuple(range(1, np.ndim(bs))))

    def unwrap(self, samples) -> np.ndarray:
        """Continuous lift of samples along axis 0, as a new array: on the
        torus each step is the wrapped difference of consecutive samples,
        from samples[0]; on the plane a plain copy."""
        s = np.array(samples, dtype=float)
        if self.topology == "torus":
            s[1:] = s[0] + np.cumsum(self.wrapped_difference(s[1:], s[:-1]), axis=0)
        return s


@dataclass(frozen=True)
class LevelStructure:
    """Product level M^{2^n} with sign vector and boundary matchings.
    matching1 pairs the two halves (the level diagonal); matching0 follows
    the start-diagonal recursion.  Matched pairs carry opposite signs, and
    the two matchings form a single cycle, which forces points on both
    diagonals onto the total diagonal."""

    space: PhaseSpace
    level: int
    sign_vector: tuple[int, ...]
    matching0: tuple[tuple[int, int], ...]
    matching1: tuple[tuple[int, int], ...]

    @property
    def copies(self) -> int:
        return 2**self.level

    def matching(self, which) -> tuple[tuple[int, int], ...]:
        if which in (0, "0"):
            return self.matching0
        if which in (1, "1"):
            return self.matching1
        raise ValueError(f"no matching named {which!r}")

    def pair_index(self, which) -> np.ndarray:
        """Matched pairs as a read-only (pairs, 2) index array, the one form
        the package reads them in: matching 0 or 1, or for "tot" copy 0
        against every other."""
        index = self._pair_index.get(which)
        if index is None:
            pairs = [(0, j) for j in range(1, self.copies)] if which == "tot" else self.matching(which)
            index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            index.flags.writeable = False
            self._pair_index[which] = index
        return index

    @cached_property
    def _pair_index(self) -> dict:
        return {}


@lru_cache(maxsize=None)
def build_level(space: PhaseSpace, n: int) -> LevelStructure:
    """Builds the level-n structure; n = 0 is the base space itself."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > MAX_LEVEL:
        raise ValueError(f"level {n} exceeds the resource guard ({MAX_LEVEL})")
    signs = (1,)
    m0: tuple[tuple[int, int], ...] = ()
    m1: tuple[tuple[int, int], ...] = ()
    for k in range(1, n + 1):
        half = 2 ** (k - 1)
        new_m1 = tuple((j, j + half) for j in range(half))
        if k == 1:
            new_m0 = ((0, 1),)
        else:
            new_m0 = m0 + tuple((a + half, b + half) for a, b in m1)
        signs = signs + tuple(-s for s in signs)
        m0, m1 = new_m0, new_m1
    return LevelStructure(space, n, signs, m0, m1)


def on_diagonal(level: LevelStructure, which, p, tol: float = DIAG_TOL) -> bool:
    """True iff every matched pair of copies coincides up to tol (sup norm);
    which is 0, 1, or "tot", which compares all copies."""
    p = np.asarray(p, dtype=float)
    if p.shape != (level.copies, level.space.dim):
        raise ValueError(f"expected point of shape {(level.copies, level.space.dim)}")
    pairs = p[level.pair_index(which)]  # (pairs, 2, dim)
    gaps = np.abs(level.space.wrapped_difference(pairs[:, 0], pairs[:, 1])).max(axis=1)
    return not np.any(gaps > tol)


def embed_diagonal_params(level: LevelStructure, which, params) -> np.ndarray:
    """Places one base point per matched pair onto both copies of the pair:
    params (..., 2^{n-1}, dim) in the order of the matching."""
    if level.level < 1:
        raise ValueError("diagonal parametrization needs level >= 1")
    params = np.asarray(params, dtype=float)
    if which == "tot":
        raise ValueError("the total diagonal has no pair parametrization")
    pairs = level.pair_index(which)
    if params.shape[-2:] != (len(pairs), level.space.dim):
        raise ValueError(f"expected params of shape (..., {len(pairs)}, {level.space.dim})")
    pair_of = np.empty(level.copies, dtype=np.intp)  # the pair holding each copy
    pair_of[pairs] = np.arange(len(pairs))[:, None]
    return np.take(params, pair_of, axis=-2)
