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


def check_out(out: np.ndarray, shape: tuple[int, ...], *operands) -> np.ndarray:
    """``out`` if it can take a float64 result of ``shape`` that is computed
    from ``operands``: it must have that shape and dtype, be C-contiguous,
    and share no memory with any operand, whose values a write through it
    would change while they are read.  Raises ``ShapeMismatchError``
    otherwise."""
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        raise ShapeMismatchError(
            f"out must be a float64 array of shape {shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    if not out.flags.c_contiguous:
        raise ShapeMismatchError("out must be C-contiguous")
    if any(np.shares_memory(out, m) for m in operands):
        raise ShapeMismatchError("out shares memory with an operand")
    return out


def vec_matmul(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vector-valued matrix product: entry (i,k) = sum_j P[i,j] x Q[j,k].

    Computed as six real matrix multiplications over the component planes
    of C-ordered operands.  Encoders and layers give C-ordered planes; the
    transposed views that backward passes are copied first, because BLAS
    can round a transposed operand differently.  Each
    output plane takes its first product directly and then subtracts the
    second.

    With ``out`` the result is written there and returned: a C-contiguous
    float64 array of shape (3, rows of P, cols of Q) that shares no memory
    with P or Q (see ``check_out``); it is checked before any write.
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
    shape = (3, p.shape[1], q.shape[2])
    out = np.empty(shape) if out is None else check_out(out, shape, p, q)
    p1, p2, p3 = np.ascontiguousarray(p)
    q1, q2, q3 = np.ascontiguousarray(q)
    for plane, (a, b, c, d) in zip(out, ((p2, q3, p3, q2), (p3, q1, p1, q3),
                                         (p1, q2, p2, q1))):
        np.matmul(a, b, out=plane)
        plane -= c @ d
    return out
