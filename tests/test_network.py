import numpy as np
import pytest
from scipy.special import expit

from vpsep import Network, backward, forward, init_network, loss_j
from vpsep.errors import ShapeMismatchError

from conftest import central_diff, max_rel_grad_err
from oracles import vec_at, vec_matmul_naive


def vec_col(*triples):
    """Column of 3-vectors as a (3, len(triples), 1) array."""
    return np.array(triples, dtype=np.float64).T[:, :, None].copy()


def rand_vm(rng, rows, cols, draw="standard_normal"):
    return np.stack([getattr(rng, draw)(size=(rows, cols)) for _ in range(3)])


def frob_sq(e):
    return float(np.sum(e * e))


def single_layer(w_triple, b_triple):
    return Network("vp", [1, 1], np.array([*w_triple, *b_triple], dtype=float))


def test_vp_forward_zero_net_outputs_half():
    net = init_network("vp", [3, 4, 2], seed=0)
    for w, _ in net.layers:
        w[...] = 0.0
    a0 = rand_vm(np.random.default_rng(0), 3, 5)
    y, _ = forward(net, a0)
    for plane in y:
        assert np.all(plane == 0.5)


def test_vp_forward_bias_only():
    net = single_layer((0, 0, 0), (0.3, -1.2, 2.0))
    a0 = vec_col((7.0, -3.0, 0.5))
    y, _ = forward(net, a0)
    want = expit(np.array([0.3, -1.2, 2.0]))
    got = vec_at(y, 0, 0).as_array()
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_vp_forward_cross_example():
    net = single_layer((1, 2, 3), (0, 0, 0))
    a0 = vec_col((4.0, 5.0, 6.0))
    y, _ = forward(net, a0)
    want = expit(np.array([-3.0, 6.0, -3.0]))
    assert np.allclose(vec_at(y, 0, 0).as_array(), want, rtol=0, atol=1e-15)


def test_vp_forward_deterministic_and_bounded():
    net = init_network("vp", [4, 6, 3], seed=5)
    rng = np.random.default_rng(6)
    a0 = rand_vm(rng, 4, 7)
    y1, _ = forward(net, a0)
    y2, _ = forward(net, a0)
    for p1, p2 in zip(y1, y2):
        assert np.array_equal(p1, p2)
        assert np.all((p1 > 0.0) & (p1 < 1.0))


def test_vp_forward_shape_mismatch():
    net = init_network("vp", [4, 6, 3], seed=5)
    with pytest.raises(ShapeMismatchError):
        forward(net, np.zeros((3, 5, 2)))
    with pytest.raises(ShapeMismatchError):
        forward(net, np.zeros((4, 2)))


def test_backward_shape_mismatch():
    net = init_network("vp", [4, 6, 3], seed=5)
    y, acts = forward(net, np.zeros((3, 4, 2)))
    with pytest.raises(ShapeMismatchError, match="activations do not match"):
        backward(net, acts[:-1], np.zeros_like(y))
    with pytest.raises(ShapeMismatchError, match=r"output gradient shape \(3, 3, 1\)"):
        backward(net, acts, np.zeros((3, 3, 1)))


def test_vp_forward_matches_naive_matmul_route():
    net = init_network("vp", [5, 7, 4], seed=8)
    rng = np.random.default_rng(9)
    a0 = rand_vm(rng, 5, 6, "uniform")
    y_fast, _ = forward(net, a0)

    a = a0
    for w, b in net.layers:
        a = expit(vec_matmul_naive(w, a) + b)
    for fast, slow in zip(y_fast, a):
        assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize("kind", ["vp", "real"])
def test_backward_out_gives_the_allocating_bytes(kind):
    net = init_network(kind, [5, 8, 4], seed=6)
    rng = np.random.default_rng(7)
    lead = (3,) if kind == "vp" else ()
    y, cache = forward(net, rng.uniform(0, 1, lead + (5, 9)))
    d_y = 2 * (y - rng.uniform(0, 1, y.shape))
    out = np.full_like(net.params, np.nan)
    assert backward(net, cache, d_y, out=out) is out
    assert out.tobytes() == backward(net, cache, d_y).tobytes()


def test_backward_refuses_a_bad_out_before_writing():
    net = init_network("vp", [4, 6, 3], seed=5)
    y, acts = forward(net, np.random.default_rng(8).uniform(0, 1, (3, 4, 2)))
    d_y = np.ones_like(y)
    size = net.params.size
    cases = [
        (np.zeros(size + 1), "shape"),
        (np.zeros(size, dtype=np.float32), "float64"),
        (np.zeros(2 * size)[::2], "C-contiguous"),
        # a gradient written over the weights would corrupt the very step
        (net.params, "shares memory"),
    ]
    for out, match in cases:
        before = out.tobytes()
        with pytest.raises(ShapeMismatchError, match=match):
            backward(net, acts, d_y, out=out)
        assert out.tobytes() == before
    grad = np.zeros(size)
    with pytest.raises(ShapeMismatchError, match="shares memory"):
        backward(net, acts, grad[:d_y.size].reshape(d_y.shape), out=grad)
    assert not grad.any()


@pytest.mark.parametrize("kind", ["vp", "real"])
def test_forward_out_gives_the_allocating_bytes(kind):
    net = init_network(kind, [5, 8, 6, 4], seed=16)
    lead = (3,) if kind == "vp" else ()
    x = np.random.default_rng(17).uniform(0, 1, lead + (5, 9))
    out = [np.full(lead + (n, 9), np.nan) for n in (8, 6, 4)]
    y, acts = forward(net, x, out=out)
    _, want = forward(net, x)
    assert y is out[-1] and all(a is b for a, b in zip(acts[1:], out))
    assert [a.tobytes() for a in acts] == [a.tobytes() for a in want]


def test_forward_refuses_a_bad_out_before_writing():
    net = init_network("vp", [4, 6, 3], seed=18)
    x = np.random.default_rng(19).uniform(0, 1, (3, 4, 5))
    hidden, last = np.full((3, 6, 5), 0.25), np.full((3, 3, 5), 0.5)
    wide = np.zeros((3, 6, 5))  # an input that is a view of it
    cases = [
        (x, [hidden], "for 2 layers"),
        (x, [hidden, np.zeros((3, 3, 4))], "shape"),
        (x, [np.zeros((3, 6, 4)), last], "shape"),
        (x, [hidden, last.astype(np.float32)], "float64"),
        (x, [np.zeros((3, 12, 5))[:, ::2], last], "C-contiguous"),
        # a layer written over its input, the weights or another layer's
        # activations would change values it or backward still reads
        (wide[:, :4], [wide, last], "shares memory"),
        (x, [net.params[:90].reshape(3, 6, 5), last], "shares memory"),
        (x, [hidden, hidden.reshape(-1)[:45].reshape(3, 3, 5)], "shares memory"),
    ]
    for inp, out, match in cases:
        before = [a.tobytes() for a in (inp, net.params, *out)]
        with pytest.raises(ShapeMismatchError, match=match):
            forward(net, inp, out=out)
        assert [a.tobytes() for a in (inp, net.params, *out)] == before


def test_vp_backward_zero_upstream():
    net = init_network("vp", [3, 5, 2], seed=1)
    rng = np.random.default_rng(2)
    a0 = rand_vm(rng, 3, 4)
    _, cache = forward(net, a0)
    grads = backward(net, cache, np.zeros((3, 2, 4)))
    assert grads.shape == net.params.shape
    assert np.all(grads == 0.0)


def test_vp_backward_single_1x1_finite_difference():
    rng = np.random.default_rng(3)
    net = single_layer(tuple(rng.standard_normal(3)),
                       tuple(rng.standard_normal(3)))
    a0 = vec_col(tuple(rng.standard_normal(3)))
    target = vec_col(tuple(rng.uniform(0.2, 0.8, 3)))

    y, cache = forward(net, a0)
    grads = backward(net, cache, 2 * (y - target))

    def f():
        yy, _ = forward(net, a0)
        return frob_sq(yy - target)

    numeric = central_diff(f, [net.params])
    assert max_rel_grad_err([grads], numeric) < 1e-5


def test_vp_backward_three_layer_finite_difference():
    rng = np.random.default_rng(4)
    net = init_network("vp", [5, 8, 4, 4], seed=13)
    a0 = rand_vm(rng, 5, 3, "uniform")
    target = rand_vm(rng, 4, 3, "uniform")

    y, cache = forward(net, a0)
    grads = backward(net, cache, 2 * (y - target))

    def f():
        yy, _ = forward(net, a0)
        return frob_sq(yy - target)

    numeric = central_diff(f, [net.params])
    assert max_rel_grad_err([grads], numeric) < 1e-4


def test_real_forward_zero_net_outputs_half():
    net = init_network("real", [4, 3, 2], seed=0)
    for w, _ in net.layers:
        w[...] = 0.0
    x = np.random.default_rng(1).standard_normal((4, 6))
    y, _ = forward(net, x)
    assert np.all(y == 0.5)


def test_real_backward_finite_difference():
    rng = np.random.default_rng(5)
    net = init_network("real", [6, 9, 5], seed=21)
    x = rng.standard_normal((6, 4))
    target = rng.uniform(0, 1, (5, 4))

    y, cache = forward(net, x)
    grads = backward(net, cache, 2 * (y - target))

    def f():
        yy, _ = forward(net, x)
        return float(np.sum((yy - target) ** 2))

    numeric = central_diff(f, [net.params])
    assert max_rel_grad_err([grads], numeric) < 1e-4


def test_context_stacked_real_network_shapes():
    f_bins = 7
    net = init_network("real", [3 * f_bins, 10, 2 * f_bins], seed=2)
    x = np.random.default_rng(3).uniform(0, 1, (3 * f_bins, 5))
    y, _ = forward(net, x)
    assert y.shape == (2 * f_bins, 5)


def stack(vocal, music):
    """A vocal-over-music block, as the networks output and train on."""
    return np.concatenate([vocal, music], axis=-2)


def test_loss_j_zero_when_equal():
    rng = np.random.default_rng(6)
    a = rand_vm(rng, 3, 4)
    b = rand_vm(rng, 3, 4)
    y = stack(a, b)
    j, g = loss_j(y, y.copy())
    assert j == 0.0
    assert frob_sq(g[:, :3]) == 0.0 and frob_sq(g[:, 3:]) == 0.0


def test_loss_j_unit_difference():
    ones = np.ones((3, 1, 1))
    zero = np.zeros((3, 1, 1))
    j, _ = loss_j(stack(ones, zero), stack(zero, zero.copy()))
    assert j == 3.0


def test_loss_j_gradient_is_finite_difference_exact():
    rng = np.random.default_rng(7)
    pred = stack(rand_vm(rng, 2, 3), rand_vm(rng, 2, 3))
    target = stack(rand_vm(rng, 2, 3), rand_vm(rng, 2, 3))
    _, g = loss_j(pred, target)

    def f():
        j, _ = loss_j(pred, target)
        return j

    numeric = central_diff(f, list(pred))  # plane views of pred
    for a, n in zip(list(g), numeric):
        assert np.max(np.abs(a - n)) < 1e-8


def test_loss_j_real_arrays_and_mismatch():
    a = np.ones((2, 2))
    j, g = loss_j(stack(a, np.zeros((2, 2))), np.zeros((4, 2)))
    assert j == 4.0
    assert np.array_equal(g[:2], 2 * a)
    assert np.all(g[2:] == 0.0)
    with pytest.raises(ShapeMismatchError):
        loss_j(a, np.zeros((2, 3)))


@pytest.mark.parametrize("shape", [(3, 10, 7), (10, 7)], ids=["vp", "real"])
def test_loss_j_sums_vocal_planes_then_music_planes(shape):
    # J's summation order fixes the bits of every J, hence of final_j in
    # checkpoints: each source's planes in turn, vocal before music
    rng = np.random.default_rng(0)
    y, t = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
    e = y - t
    half = shape[-2] // 2

    def plane_sums(block):
        total = 0.0
        for plane in block.reshape(-1, half, shape[-1]):
            total += (plane * plane).sum()
        return total

    want = plane_sums(e[..., :half, :]) + plane_sums(e[..., half:, :])
    j, grad = loss_j(y, t)
    assert j == want
    assert j == pytest.approx(np.sum((y - t) ** 2), rel=1e-12)
    assert np.array_equal(grad, 2 * (y - t))
    # a single sum over the block rounds differently on these data, so the
    # == above does pin the order
    assert want != np.sum(e * e)


def test_param_count_single_1x1_layer():
    net = single_layer((1, 2, 3), (4, 5, 6))
    assert net.params.size == 6


def test_param_count_vp_triples_matched_real():
    sizes = [13, 8, 8, 8, 26]
    vp = init_network("vp", sizes, seed=0)
    real = init_network("real", sizes, seed=0)
    assert vp.params.size == 3 * real.params.size


def test_param_count_reports_wide_real_baseline():
    # the 3x-wide real network is not parameter-equal to the vector network
    # of a third the width; counts are compared, not asserted equal
    narrow_vp = init_network("vp", [13, 8, 8, 4], seed=0)
    wide_real = init_network("real", [13, 24, 24, 4], seed=0)
    ratio = wide_real.params.size / narrow_vp.params.size
    assert ratio != pytest.approx(1.0, abs=0.2)


def test_init_deterministic_and_zero_bias():
    a = init_network("vp", [4, 6, 2], seed=42)
    b = init_network("vp", [4, 6, 2], seed=42)
    assert np.array_equal(a.params, b.params)
    for _, bias in a.layers:
        assert np.all(bias == 0.0)
    c = init_network("vp", [4, 6, 2], seed=43)
    assert not np.array_equal(a.layers[0][0][0], c.layers[0][0][0])


def test_init_weight_mean_near_zero():
    net = init_network("vp", [320, 105], seed=77)
    draws = net.layers[0][0].ravel()
    lim = np.sqrt(6.0 / (320 + 105))
    se = lim / np.sqrt(3.0 * draws.size)
    assert draws.size >= 100000
    assert abs(draws.mean()) < 3 * se
    assert np.max(np.abs(draws)) <= lim


def test_init_rejects_zero_width():
    with pytest.raises(ShapeMismatchError):
        init_network("vp", [4, 0, 2], seed=0)
    with pytest.raises(ShapeMismatchError):
        init_network("real", [4], seed=0)


def test_small_sgd_step_decreases_loss():
    rng = np.random.default_rng(8)
    net = init_network("vp", [4, 6, 3], seed=3)
    a0 = rand_vm(rng, 4, 5, "uniform")
    target = rand_vm(rng, 3, 5, "uniform")

    y, cache = forward(net, a0)
    j_before = frob_sq(y - target)
    grads = backward(net, cache, 2 * (y - target))
    net.params -= 1e-3 * grads  # the layer views follow the buffer
    y2, _ = forward(net, a0)
    j_after = frob_sq(y2 - target)
    assert j_after < j_before


def test_networks_validate_chaining():
    # layers chain by construction; the buffer must fit the widths exactly
    net = Network("vp", [2, 3, 5])
    assert [w.shape for w, _ in net.layers] == [(3, 3, 2), (3, 5, 3)]
    assert [b.shape for _, b in net.layers] == [(3, 3, 1), (3, 5, 1)]
    assert Network("real", [2, 3, 5]).params.size == 3 * 2 + 3 + 5 * 3 + 5
    with pytest.raises(ShapeMismatchError):
        Network("vp", [2, 3, 5], np.zeros(net.params.size + 1))
    with pytest.raises(ShapeMismatchError):
        Network("real", [2, 3, 5], np.zeros(net.params.size))
    with pytest.raises(ShapeMismatchError):
        Network("complex", [2, 3])
