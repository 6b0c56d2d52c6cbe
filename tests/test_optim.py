import numpy as np
import pytest

from vpsep.errors import ShapeMismatchError, VpsepError
from vpsep.optim import AdamState, adam_init, adam_step


def arrs(*vals):
    return [np.array(v, dtype=np.float64) for v in vals]


def test_adam_init_zero_state():
    params = arrs([[1.0, 2.0]], [[3.0], [4.0]])
    state = adam_init(params, lr=0.1)
    assert state.t == 0
    for m, v, p in zip(state.m, state.v, params):
        assert m.shape == p.shape and v.shape == p.shape
        assert np.all(m == 0.0) and np.all(v == 0.0)


def test_adam_zero_gradient_is_fixed_point():
    params = arrs([[1.5, -2.0]])
    state = adam_init(params)
    new_p, new_state = adam_step(params, arrs([[0.0, 0.0]]), state)
    assert np.array_equal(new_p[0], params[0])
    assert new_state.t == 1


def test_adam_first_step_magnitude():
    params = arrs([[0.0]])
    state = adam_init(params, lr=0.1)
    new_p, _ = adam_step(params, arrs([[2.0]]), state)
    # bias correction makes the first step lr * g/(|g| + eps)
    assert new_p[0][0, 0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    theta = 0.7
    g1, g2 = 1.3, -0.4

    m = v = 0.0
    m = b1 * m + (1 - b1) * g1
    v = b2 * v + (1 - b2) * g1 * g1
    theta_1 = theta - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    theta_2 = theta_1 - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)

    params = arrs([[0.7]])
    state = adam_init(params, lr=lr, beta1=b1, beta2=b2, epsilon=eps)
    p1, state = adam_step(params, arrs([[g1]]), state)
    p2, state = adam_step(p1, arrs([[g2]]), state)
    assert p1[0][0, 0] == pytest.approx(theta_1, abs=1e-12)
    assert p2[0][0, 0] == pytest.approx(theta_2, abs=1e-12)
    assert state.t == 2


def test_adam_updates_are_pure():
    params = arrs([[1.0, 2.0]])
    grads = arrs([[0.5, -0.5]])
    state = adam_init(params)
    before_p = params[0].copy()
    before_m = state.m[0].copy()
    new_p, new_state = adam_step(params, grads, state)
    assert np.array_equal(params[0], before_p)
    assert np.array_equal(state.m[0], before_m)
    assert state.t == 0
    assert new_state is not state
    assert new_p[0] is not params[0]


def test_adam_deterministic():
    params = arrs([[0.3, -0.8], [2.0, 0.0]])
    grads = arrs([[1.0, -1.0], [0.25, 4.0]])
    a = adam_step(params, grads, adam_init(params))[0]
    b = adam_step(params, grads, adam_init(params))[0]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_adam_arrays_update_independently():
    x = np.array([[0.3, -0.8]])
    y = np.array([[2.0]])
    gx = np.array([[1.0, -1.0]])
    gy = np.array([[0.25]])
    joint, _ = adam_step([x, y], [gx, gy], adam_init([x, y]))
    solo_x, _ = adam_step([x], [gx], adam_init([x]))
    solo_y, _ = adam_step([y], [gy], adam_init([y]))
    assert np.array_equal(joint[0], solo_x[0])
    assert np.array_equal(joint[1], solo_y[0])
    swapped, _ = adam_step([y, x], [gy, gx], adam_init([y, x]))
    assert np.array_equal(swapped[0], joint[1])
    assert np.array_equal(swapped[1], joint[0])


def test_adam_step_counter_and_bias_correction_progress():
    params = arrs([[0.0]])
    grads = arrs([[1.0]])
    state = adam_init(params, lr=0.1)
    p = params
    for want_t in (1, 2, 3):
        p, state = adam_step(p, grads, state)
        assert state.t == want_t
    # constant gradient keeps full-size steps after bias correction
    assert p[0][0, 0] == pytest.approx(-0.3, abs=1e-6)


def test_adam_rejects_mismatched_inputs():
    params = arrs([[1.0, 2.0]])
    state = adam_init(params)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, arrs([[1.0]]), state)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, arrs([[1.0, 2.0]], [[3.0]]), state)
    other_state = adam_init(arrs([[1.0], [2.0]]))
    with pytest.raises(ShapeMismatchError):
        adam_step(params, arrs([[1.0, 2.0]]), other_state)


def test_adam_rejects_non_finite_gradients():
    params = arrs([[1.0, 2.0]])
    state = adam_init(params)
    with pytest.raises(VpsepError):
        adam_step(params, arrs([[np.nan, 0.0]]), state)
    with pytest.raises(VpsepError):
        adam_step(params, arrs([[np.inf, 0.0]]), state)


def test_adam_state_validates_hyperparameters():
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), lr=0.0)
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), beta1=1.0)
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), beta2=-0.1)
    with pytest.raises(VpsepError):
        AdamState(m=[], v=[], t=-1)

