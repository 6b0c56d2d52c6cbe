"""Slow reference implementations that the tests check the library against.

Vector matrices are ``(3, rows, cols)`` arrays, as in :mod:`vpsep.vecmat`.
"""

from dataclasses import dataclass

import numpy as np

from vpsep.errors import ShapeMismatchError


@dataclass(frozen=True)
class Vec3:
    """A single 3-vector with real components."""

    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=np.float64)


def cross(x: Vec3, y: Vec3) -> Vec3:
    """Cross product of two 3-vectors."""
    return Vec3(
        x.c2 * y.c3 - x.c3 * y.c2,
        x.c3 * y.c1 - x.c1 * y.c3,
        x.c1 * y.c2 - x.c2 * y.c1,
    )


def dot(x: Vec3, y: Vec3) -> float:
    return x.c1 * y.c1 + x.c2 * y.c2 + x.c3 * y.c3


def vec_at(m, i: int, j: int) -> Vec3:
    """The vector at (i, j) of a (3, rows, cols) array or nested list."""
    return Vec3(float(m[0][i][j]), float(m[1][i][j]), float(m[2][i][j]))


def vec_matmul_naive(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vector-valued matrix product via per-entry cross products,
    accumulated row-major in ascending j."""
    if p.shape[2] != q.shape[1]:
        raise ShapeMismatchError(f"inner dimensions do not match: {p.shape} x {q.shape}")
    pl, ql = p.tolist(), q.tolist()
    out = np.zeros((3, p.shape[1], q.shape[2]))
    for i in range(p.shape[1]):
        for k in range(q.shape[2]):
            acc = Vec3(0.0, 0.0, 0.0)
            for j in range(p.shape[2]):
                c = cross(vec_at(pl, i, j), vec_at(ql, j, k))
                acc = Vec3(acc.c1 + c.c1, acc.c2 + c.c2, acc.c3 + c.c3)
            out[0, i, k], out[1, i, k], out[2, i, k] = acc.c1, acc.c2, acc.c3
    return out
