"""Cross-product matrix product over ``(3, rows, cols)`` arrays.

A matrix of 3-vectors is one float64 array of shape ``(3, rows, cols)``:
``a[:, i, j]`` is the vector at (i, j) and ``a[c]`` is component plane c.
In this layout the vector-valued matrix product reduces to six plain real
matrix multiplications, which is what makes the networks in
:mod:`vpsep.network` fast on CPU BLAS.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def vec_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vector-valued matrix product: entry (i,k) = sum_j P[i,j] x Q[j,k].

    Computed as six real matrix multiplications over the component planes
    of C-ordered operands; others, such as transposed views, are copied
    first, because BLAS can round a transposed operand differently.
    """
    for name, m in (("left", p), ("right", q)):
        if np.ndim(m) != 3 or np.shape(m)[0] != 3:
            raise ShapeMismatchError(
                f"{name} operand must have shape (3, rows, cols), got {np.shape(m)}"
            )
    if p.shape[2] != q.shape[1]:
        raise ShapeMismatchError(
            f"inner dimensions do not match: {p.shape[1:]} x {q.shape[1:]}"
        )
    p1, p2, p3 = np.ascontiguousarray(p)
    q1, q2, q3 = np.ascontiguousarray(q)
    out = np.empty((3, p.shape[1], q.shape[2]))
    np.subtract(p2 @ q3, p3 @ q2, out=out[0])
    np.subtract(p3 @ q1, p1 @ q3, out=out[1])
    np.subtract(p1 @ q2, p2 @ q1, out=out[2])
    return out
