import numpy as np
import pytest
from scipy.special import expit

from vpsep import forward, loss_j, vec_matmul
from vpsep.dataset import make_batches
from vpsep.errors import ShapeMismatchError
from vpsep.network import Network

from oracles import Vec3, cross, dot, vec_at, vec_matmul_naive


def rand_vm(rng, rows, cols, scale=1.0):
    return np.stack([scale * rng.standard_normal((rows, cols)) for _ in range(3)])


def from_vec3(v: Vec3) -> np.ndarray:
    """1x1 vector matrix holding a single vector."""
    return v.as_array().reshape(3, 1, 1)


def test_cross_canonical_basis():
    assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)


def test_cross_self_product_vanishes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = Vec3(*rng.standard_normal(3))
        assert cross(v, v) == Vec3(0.0, 0.0, 0.0)


def test_cross_worked_example():
    got = cross(Vec3(1, 2, 3), Vec3(4, 5, 6))
    assert got == Vec3(-3.0, 6.0, -3.0)


def test_cross_algebraic_properties():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = Vec3(*rng.standard_normal(3))
        y = Vec3(*rng.standard_normal(3))
        c = cross(x, y)
        r = cross(y, x)
        scale = max(abs(v) for v in c.as_array()) + 1e-30
        assert np.max(np.abs(c.as_array() + r.as_array())) <= 1e-10 * scale
        nx = float(np.dot(x.as_array(), x.as_array()))
        ny = float(np.dot(y.as_array(), y.as_array()))
        bound = 1e-10 * np.sqrt(nx * ny) + 1e-30
        assert abs(dot(c, x)) <= bound * np.sqrt(nx)
        assert abs(dot(c, y)) <= bound * np.sqrt(ny)
        lhs = float(np.dot(c.as_array(), c.as_array()))
        rhs = nx * ny - dot(x, y) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_cross_stays_finite():
    big = Vec3(1e150, -1e150, 1e150)
    out = cross(big, Vec3(1e-150, 1e-150, -1e-150))
    assert np.all(np.isfinite(out.as_array()))


def test_vecmatrix_validation():
    # a vector matrix is a (3, rows, cols) array; anything else is rejected
    with pytest.raises(ShapeMismatchError):
        vec_matmul(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ShapeMismatchError):
        vec_matmul(np.zeros((3, 2, 2)), np.zeros((2, 2)))


def test_vec_matmul_zero():
    z = np.zeros((3, 3, 3))
    out = vec_matmul(z, z)
    assert out.shape == (3, 3, 3)
    assert np.all(out == 0.0)


def test_vec_matmul_1x1_reduces_to_cross():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = Vec3(*rng.standard_normal(3))
        y = Vec3(*rng.standard_normal(3))
        out = vec_matmul(from_vec3(x), from_vec3(y))
        assert np.allclose(vec_at(out, 0, 0).as_array(), cross(x, y).as_array(),
                           rtol=0, atol=1e-15)


def test_vec_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        vec_matmul(np.zeros((3, 2, 3)), np.zeros((3, 4, 2)))


def test_vec_matmul_matches_naive_4x3_3x2():
    rng = np.random.default_rng(3)
    p = rand_vm(rng, 4, 3)
    q = rand_vm(rng, 3, 2)
    fast = vec_matmul(p, q)
    slow = vec_matmul_naive(p, q)
    for a, b in zip(fast, slow):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_vec_matmul_matches_naive_many_shapes():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m, k, n = rng.integers(1, 9, size=3)
        p = rand_vm(rng, m, k)
        q = rand_vm(rng, k, n)
        fast = vec_matmul(p, q)
        slow = vec_matmul_naive(p, q)
        for a, b in zip(fast, slow):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_naive_single_entry_reproduces_cross():
    rng = np.random.default_rng(5)
    x = Vec3(*rng.standard_normal(3))
    y = Vec3(*rng.standard_normal(3))
    p = np.zeros((3, 2, 3))
    q = np.zeros((3, 3, 2))
    p[:, 1, 2] = x.as_array()
    q[:, 2, 0] = y.as_array()
    out = vec_matmul_naive(p, q)
    assert np.allclose(vec_at(out, 1, 0).as_array(), cross(x, y).as_array())
    assert np.allclose(vec_at(out, 0, 1).as_array(), 0.0)


def test_naive_zero_q():
    rng = np.random.default_rng(6)
    p = rand_vm(rng, 3, 4)
    out = vec_matmul_naive(p, np.zeros((3, 4, 2)))
    assert np.all(out == 0.0)


def test_vec_matmul_bilinear_in_first_argument():
    rng = np.random.default_rng(7)
    p = rand_vm(rng, 3, 5)
    q = rand_vm(rng, 5, 2)
    lhs = vec_matmul(2.5 * p, q)
    rhs = 2.5 * vec_matmul(p, q)
    for a, b in zip(lhs, rhs):
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_vm_add_zero_identity():
    # a zero bias adds nothing: one layer gives exactly sigmoid(W (x) a)
    rng = np.random.default_rng(8)
    net = Network("vp", [3, 2])
    w, b = net.layers[0]
    w[...] = rand_vm(rng, 2, 3)
    a = rand_vm(rng, 3, 4)
    y, _ = forward(net, a)
    assert np.array_equal(y, expit(vec_matmul(w, a)))
    assert np.all(b == 0.0)


def test_vm_add_shape_mismatch():
    # elementwise differences of vector matrices need equal shapes
    with pytest.raises(ShapeMismatchError):
        loss_j(np.zeros((3, 2, 3)), np.zeros((3, 3, 2)))


def test_vm_frob_sq_zero_and_ones():
    zero = np.zeros((3, 5, 7))
    j, _ = loss_j(zero, zero)
    assert j == 0.0
    j, _ = loss_j(np.ones((3, 2, 2)), np.zeros((3, 2, 2)))
    assert j == 12.0


def test_vm_sub_and_scale():
    # the loss gradient is twice the difference, in every plane
    rng = np.random.default_rng(9)
    a = rand_vm(rng, 3, 3)
    b = rand_vm(rng, 3, 3)
    j, g = loss_j(np.concatenate([a, a], axis=1), np.concatenate([a * 1.0, b], axis=1))
    assert np.array_equal(g[:, :3], np.zeros_like(a))
    assert np.array_equal(g[:, 3:], 2.0 * (a - b))
    assert j == sum(float(np.sum(p * p)) for p in a - b)


def test_vm_transpose_involution():
    rng = np.random.default_rng(10)
    a = rand_vm(rng, 3, 5)
    t = a.swapaxes(-1, -2)
    assert t.shape == (3, 5, 3)
    assert vec_at(t, 4, 1) == vec_at(a, 1, 4)
    assert np.array_equal(t.swapaxes(-1, -2), a)
    # a transposed view multiplies exactly like a transposed copy, also at
    # shapes where BLAS rounds a transposed operand differently
    g, x = rand_vm(rng, 64, 20), rand_vm(rng, 513, 20)
    xt = x.swapaxes(-1, -2)
    assert np.array_equal(vec_matmul(g, xt), vec_matmul(g, np.ascontiguousarray(xt)))


def test_vm_vstack_split_roundtrip():
    # vocal rows stack over music rows in every plane, and the loss
    # gradient keeps that layout
    rng = np.random.default_rng(11)
    a = rand_vm(rng, 2, 4)
    b = rand_vm(rng, 2, 4)
    stacked = np.concatenate([a, b], axis=-2)
    assert stacked.shape == (3, 4, 4)
    _, grad = loss_j(stacked, np.zeros_like(stacked))
    top, bottom = grad[..., :2, :] / 2, grad[..., 2:, :] / 2
    assert np.array_equal(top, a)
    assert np.array_equal(bottom, b)


def test_vm_take_cols():
    # minibatches pick whole frame columns, keeping every vector intact
    rng = np.random.default_rng(12)
    a = rand_vm(rng, 2, 6)
    t = rand_vm(rng, 4, 6)
    (picked, target), = make_batches(a, t, 6, np.random.default_rng(0))
    order = np.random.default_rng(0).permutation(6)
    assert picked.shape == (3, 2, 6) and target.shape == (3, 4, 6)
    assert vec_at(picked, 1, 0) == vec_at(a, 1, order[0])
    assert vec_at(target, 3, 5) == vec_at(t, 3, order[5])
