"""Shared generators for randomized tests (all seeded, no global state)."""

from __future__ import annotations

from lpvdd import (
    CoeffMatrix,
    LpvSsModel,
    PolyCoeff,
    Trajectory,
    minimality_report,
    random_affine_ss,
)


def rand_traj(rng, dim: int, T: int, t_start: int = 1, lo=-1.0, hi=1.0) -> Trajectory:
    return Trajectory(t_start, rng.uniform(lo, hi, (T, dim)))


def rand_poly(
    rng,
    n_p: int,
    max_terms: int = 4,
    max_vars: int = 3,
    offset_range: tuple[int, int] = (-2, 2),
    max_power: int = 2,
) -> PolyCoeff:
    """Random sparse polynomial in shifted scheduling samples."""
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        mono = tuple(
            (
                int(rng.integers(1, n_p + 1)),
                int(rng.integers(offset_range[0], offset_range[1] + 1)),
                int(rng.integers(1, max_power + 1)),
            )
            for _ in range(rng.integers(0, max_vars + 1))
        )
        terms.append((float(rng.uniform(-2, 2)), mono))
    return PolyCoeff(n_p, tuple(terms))


def traj_covering(rng, poly_or_mat, n_p: int, k_lo: int, k_hi: int) -> Trajectory:
    """Scheduling trajectory covering evaluation of the object on [k_lo, k_hi]."""
    win = poly_or_mat.window or (0, 0)
    t0, t1 = k_lo + win[0], k_hi + win[1]
    return Trajectory(t0, rng.uniform(-1, 1, (t1 - t0 + 1, n_p)))


def rand_coeff_matrix(rng, rows: int, cols: int, n_p: int) -> CoeffMatrix:
    return CoeffMatrix(
        [[rand_poly(rng, n_p, max_terms=3, max_vars=2) for _ in range(cols)]
         for _ in range(rows)]
    )


def minimal_random_ss(
    rng, n_x: int, n_u: int = 1, n_y: int = 1, n_p: int = 1, max_draws: int = 20
) -> LpvSsModel:
    """Random affine state-space model filtered for structural minimality."""
    for _ in range(max_draws):
        model = random_affine_ss(rng, n_x, n_u, n_y, n_p)
        if minimality_report(model, seed=int(rng.integers(1 << 30))).minimal:
            return model
    raise AssertionError("could not draw a structurally minimal model")
