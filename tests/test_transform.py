import tracemalloc

import numpy as np
import pytest

from vpsep import (
    MagnitudeMatrix,
    color_decode,
    color_encode,
    normalize,
    window_decode,
    window_encode,
    window_stack,
)
from vpsep.errors import ShapeMismatchError, VpsepError

N_DEFAULT = 0.0938


def mags(data, scale=1.0):
    return MagnitudeMatrix(np.asarray(data, dtype=np.float64), scale)


def ramp_points(x, n=N_DEFAULT):
    """Independent scalar route onto the color curve."""
    x = np.asarray(x, dtype=np.float64)
    r = np.clip(x / n, 0.0, 1.0)
    g = np.clip((x - n) / n, 0.0, 1.0)
    b = np.clip((x - 2 * n) / (1 - 2 * n), 0.0, 1.0)
    return np.stack([r, g, b], axis=-1)


def grid_project(point, n=N_DEFAULT, grid=100000):
    """Nearest curve parameter by dense search, the decode oracle."""
    xs = np.linspace(0.0, 1.0, grid)
    curve = ramp_points(xs, n)
    d = np.sum((curve - np.asarray(point)) ** 2, axis=-1)
    return xs[int(np.argmin(d))]


def test_window_single_frame_replicates_itself():
    s = mags([[0.2], [0.7]])
    v = window_encode(s)
    for plane in v:
        assert np.array_equal(plane, s.data)


def test_window_constant_input_constant_planes():
    s = mags(np.full((3, 5), 0.25))
    v = window_encode(s)
    for plane in v:
        assert np.all(plane == 0.25)


def test_window_three_frames_layout():
    a, b, c = 0.1, 0.5, 0.9
    s = mags([[a, b, c]])
    v = window_encode(s)
    assert v.shape == (3, 1, 3)
    assert np.allclose(v[0], [[a, a, b]], rtol=0, atol=0)
    assert np.allclose(v[1], [[a, b, c]], rtol=0, atol=0)
    assert np.allclose(v[2], [[b, c, c]], rtol=0, atol=0)


def test_window_roundtrip_exact():
    rng = np.random.default_rng(0)
    s = mags(rng.uniform(0, 1, (17, 9)), scale=3.5)
    back = window_decode(window_encode(s))
    assert np.array_equal(back.data, s.data)


def test_window_decode_refuses_out_of_range_planes():
    # nothing is clamped: the current-frame plane must already lie in [0, 1]
    for bad in (-0.25, 1.5, np.nan):
        v = np.stack([np.zeros((1, 2)), np.array([[0.5, bad]]), np.zeros((1, 2))])
        with pytest.raises(VpsepError, match=r"\[0, 1\]"):
            window_decode(v)
    v = np.random.default_rng(2).uniform(0, 1, (3, 4, 5))
    v[1, 0, :2] = 0.0, 1.0
    assert window_decode(v).data.tobytes() == v[1].tobytes()


def test_encoders_give_c_ordered_planes_for_either_input_order():
    data = np.random.default_rng(6).uniform(0, 1, (6, 5))
    for encode in (color_encode, window_encode):
        row, col = (encode(mags(a)) for a in (np.ascontiguousarray(data),
                                               np.asfortranarray(data)))
        assert row.flags.c_contiguous and col.flags.c_contiguous
        assert row.tobytes() == col.tobytes()


def test_window_stack_layout():
    s = mags([[0.1, 0.5, 0.9], [0.2, 0.6, 1.0]])
    x = window_stack(s)
    assert x.shape == (6, 3)
    prev, cur, nxt = x[:2], x[2:4], x[4:]
    assert np.array_equal(cur, s.data)
    assert np.array_equal(prev[:, 0], s.data[:, 0])
    assert np.array_equal(prev[:, 1:], s.data[:, :-1])
    assert np.array_equal(nxt[:, -1], s.data[:, -1])
    assert np.array_equal(nxt[:, :-1], s.data[:, 1:])


def test_window_rejects_empty():
    with pytest.raises(ShapeMismatchError):
        window_encode(mags(np.zeros((4, 0))))


def test_window_encodes_picked_frames_as_a_c_ordered_minibatch():
    s = mags(np.random.default_rng(7).uniform(0, 1, (5, 6)))
    cols = np.array([[4, 0, 1], [5, 0, 2], [5, 1, 3]])  # previous, own, next
    v = window_encode(s, cols)
    assert v.flags.c_contiguous
    assert v.tobytes() == np.ascontiguousarray(window_encode(s)[..., [5, 0, 2]]).tobytes()
    for bad in (cols[:2], cols[1]):  # every plane needs its frame index
        with pytest.raises(ShapeMismatchError, match=r"cols must have shape \(3, T\)"):
            window_encode(s, bad)


def test_color_anchor_points():
    n = N_DEFAULT
    s = mags([[0.0, n, 2 * n, 1.0, n / 2]])
    v = color_encode(s)
    got = np.stack([p[0] for p in v], axis=-1)
    want = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.5, 0.0, 0.0],
        ]
    )
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_color_encode_matches_scalar_route():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (13, 7))
    v = color_encode(mags(x))
    want = ramp_points(x)
    got = np.stack(list(v), axis=-1)
    assert np.max(np.abs(got - want)) == 0.0


def test_color_encode_rejects_out_of_range():
    # color_encode takes only a MagnitudeMatrix, whose constructor holds
    # the one [0, 1] check; the ends of the range encode to the ramp ends
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(VpsepError, match=r"\[0, 1\]"):
            color_encode(MagnitudeMatrix(np.array([[0.5, bad]])))
    v = color_encode(mags([[0.0, 1.0]]))
    assert np.array_equal(v[:, 0, :], [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])


def test_color_decode_corners():
    v = np.array([[[0.0, 1.0]]] * 3)
    back = color_decode(v)
    assert back.data[0, 0] == 0.0
    assert back.data[0, 1] == 1.0


def test_color_roundtrip_dense_grid():
    x = np.linspace(0.0, 1.0, 10000).reshape(100, 100)
    back = color_decode(color_encode(mags(x)))
    err = np.abs(back.data - x)
    rel = err / np.maximum(np.abs(x), 1e-3)
    assert np.max(rel) < 1e-9


def test_color_roundtrip_other_bias():
    x = np.linspace(0.0, 1.0, 501).reshape(1, 501)
    back = color_decode(color_encode(mags(x), 0.2), 0.2)
    assert np.max(np.abs(back.data - x)) < 1e-12


def test_color_decode_off_curve_point_matches_grid_search():
    point = (0.5, -0.1, 0.0)
    v = np.array(point).reshape(3, 1, 1)
    got = color_decode(v).data[0, 0]
    want = grid_project(point)
    assert abs(got - want) < 1e-6


def test_color_decode_random_points_match_grid_search():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 1.5, (40, 3))
    v = pts.T[:, :, None]
    got = color_decode(v).data[:, 0]
    xs = np.linspace(0.0, 1.0, 100001)
    curve = ramp_points(xs)  # (G, 3)
    d = np.sum((curve[None, :, :] - pts[:, None, :]) ** 2, axis=-1)
    want = xs[np.argmin(d, axis=1)]
    assert np.max(np.abs(got - want)) < 1e-5
    # projections are never farther from the point than the grid optimum
    got_d = np.sum((ramp_points(got) - pts) ** 2, axis=-1)
    grid_d = np.min(d, axis=1)
    assert np.all(got_d <= grid_d + 1e-8)


def test_color_decode_matches_argmin_reference_bit_for_bit():
    from oracles import color_decode_argmin

    rng = np.random.default_rng(4)
    off_curve = rng.uniform(-0.5, 1.5, (3, 40, 50))
    # quarter steps give exact distance ties between segments, e.g.
    # (.5, .5, 0): d1 = d2; (1, .5, .5): d2 = d3; (.5, .5, .5): all three
    grid = np.linspace(-0.25, 1.25, 7)
    ties = np.stack(np.meshgrid(grid, grid, grid, indexing="ij")).reshape(3, 7, 49)
    for n in (N_DEFAULT, 0.25):
        for v in (off_curve, ties):
            got = color_decode(v, n).data
            assert np.array_equal(got, color_decode_argmin(v, n))


def test_color_decode_holds_few_whole_planes():
    # the nearest segment is kept one segment at a time; the three
    # parameters and distances held at once came to 10.6 planes
    v = np.random.default_rng(5).uniform(-0.2, 1.2, (3, 1026, 128))
    tracemalloc.start()
    try:
        color_decode(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * v[0].nbytes


def test_color_encode_monotone_in_x():
    x = np.linspace(0, 1, 2001)[None, :]
    v = color_encode(mags(x))
    total = v[0] + v[1] + v[2]
    assert np.all(np.diff(total[0]) > 0)
    back = color_decode(v)
    assert np.all(np.diff(back.data[0]) > 0)


def test_color_n_bounds():
    x = mags([[0.5]])
    v = color_encode(x, 0.25)
    for n in (0.0, 0.5, -0.1, float("nan")):
        with pytest.raises(VpsepError, match="color_n"):
            color_encode(x, n)
        with pytest.raises(VpsepError, match="color_n"):
            color_decode(v, n)


def test_normalize_own_maximum():
    raw = np.array([[0.0, 2.0], [4.0, 1.0]])
    s = normalize(raw)
    assert s.scale == 4.0
    assert np.array_equal(s.data, raw / 4.0)
    assert np.array_equal(s.data * s.scale, raw)


def test_normalize_all_zero_uses_floor():
    s = normalize(np.zeros((3, 3)))
    assert s.scale == 1e-12
    assert np.all(s.data == 0.0)


def test_normalize_shared_scale_clamps_overshoot():
    raw = np.array([[3.0, 6.0]])
    s = normalize(raw, scale=4.0)
    assert np.array_equal(s.data, [[0.75, 1.0]])
    assert s.scale == 4.0


def test_normalize_rejects_negative_and_bad_scale():
    with pytest.raises(VpsepError):
        normalize(np.array([[-1.0]]))
    with pytest.raises(VpsepError):
        normalize(np.array([[1.0]]), scale=0.0)


def test_magnitude_matrix_validation():
    with pytest.raises(ShapeMismatchError):
        MagnitudeMatrix(np.zeros(4))
    with pytest.raises(VpsepError):
        MagnitudeMatrix(np.array([[0.5]]), scale=0.0)


def test_normalize_rejects_nan():
    with pytest.raises(VpsepError):
        normalize(np.array([[1.0, np.nan]]))
    with pytest.raises(VpsepError):
        normalize(np.array([[1.0]]), scale=np.nan)
