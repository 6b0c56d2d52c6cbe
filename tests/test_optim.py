from dataclasses import fields

import numpy as np
import pytest

from vpsep.errors import ShapeMismatchError, VpsepError
from vpsep.optim import BETA1, BETA2, EPSILON, AdamState, adam_init, adam_step

from oracles import adam_step_pure


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
    before = params[0].copy()
    state = adam_init(params)
    adam_step(params, arrs([[0.0, 0.0]]), state)
    assert np.array_equal(params[0], before)
    assert state.t == 1


def test_adam_first_step_magnitude():
    params = arrs([[0.0]])
    state = adam_init(params, lr=0.1)
    adam_step(params, arrs([[2.0]]), state)
    # bias correction makes the first step lr * g/(|g| + eps)
    assert params[0][0, 0] == pytest.approx(-0.1, abs=1e-8)


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
    state = adam_init(params, lr=lr)  # b1, b2 and eps are Adam's constants
    adam_step(params, arrs([[g1]]), state)
    assert params[0][0, 0] == pytest.approx(theta_1, abs=1e-12)
    adam_step(params, arrs([[g2]]), state)
    assert params[0][0, 0] == pytest.approx(theta_2, abs=1e-12)
    assert state.t == 2


def test_adam_updates_in_place():
    params = arrs([[1.0, 2.0]])
    grads = arrs([[0.5, -0.5]])
    state = adam_init(params)
    p, m, v = params[0], state.m[0], state.v[0]
    before_p, before_g = p.copy(), grads[0].copy()
    assert adam_step(params, grads, state) is None
    assert state.t == 1
    # the same arrays now hold the stepped values
    assert params[0] is p and state.m[0] is m and state.v[0] is v
    assert np.all(p != before_p)
    assert np.all(m != 0.0) and np.all(v != 0.0)
    assert np.array_equal(grads[0], before_g)


def test_adam_matches_pure_reference_across_blocks():
    # 150,000 values cross two block edges of the in-place step
    rng = np.random.default_rng(3)
    params = [rng.standard_normal(150_000), rng.standard_normal((7, 5))]
    ref_p = [p.copy() for p in params]
    state = adam_init(params, lr=0.01)
    ref_state = adam_init(ref_p, lr=0.01)
    for _ in range(5):
        grads = [rng.standard_normal(p.shape) for p in params]
        adam_step(params, grads, state)
        ref_p, ref_state = adam_step_pure(ref_p, grads, ref_state)
    assert state.t == ref_state.t == 5
    for got, want in zip(params + state.m + state.v,
                         ref_p + ref_state.m + ref_state.v):
        assert np.array_equal(got, want)


def test_adam_refuses_non_contiguous_arrays():
    # a step works on flat views of whole C-contiguous arrays; any other
    # layout of the parameter, gradient or a moment is refused untouched
    rng = np.random.default_rng(8)
    for k in range(4):
        arrays = [rng.uniform(0.1, 1.0, (4, 3)) for _ in range(4)]
        arrays[k] = np.asfortranarray(arrays[k])
        before = [a.copy() for a in arrays]
        p, g, m, v = arrays
        state = AdamState([m], [v])
        with pytest.raises(ShapeMismatchError, match="C-contiguous"):
            adam_step([p], [g], state)
        assert state.t == 0
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)


def test_adam_deterministic():
    params = arrs([[0.3, -0.8], [2.0, 0.0]])
    grads = arrs([[1.0, -1.0], [0.25, 4.0]])
    a = [p.copy() for p in params]
    b = [p.copy() for p in params]
    adam_step(a, grads, adam_init(a))
    adam_step(b, grads, adam_init(b))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_adam_arrays_update_independently():
    x = np.array([[0.3, -0.8]])
    y = np.array([[2.0]])
    gx = np.array([[1.0, -1.0]])
    gy = np.array([[0.25]])

    def stepped(*arrays_and_grads):
        arrays = [a.copy() for a, _ in arrays_and_grads]
        adam_step(arrays, [g for _, g in arrays_and_grads], adam_init(arrays))
        return arrays

    joint = stepped((x, gx), (y, gy))
    assert np.array_equal(joint[0], stepped((x, gx))[0])
    assert np.array_equal(joint[1], stepped((y, gy))[0])
    swapped = stepped((y, gy), (x, gx))
    assert np.array_equal(swapped[0], joint[1])
    assert np.array_equal(swapped[1], joint[0])


def test_adam_step_counter_and_bias_correction_progress():
    params = arrs([[0.0]])
    grads = arrs([[1.0]])
    state = adam_init(params, lr=0.1)
    for want_t in (1, 2, 3):
        adam_step(params, grads, state)
        assert state.t == want_t
    # constant gradient keeps full-size steps after bias correction
    assert params[0][0, 0] == pytest.approx(-0.3, abs=1e-6)


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
    two_arrays = adam_init(arrs([[1.0, 2.0]], [[3.0]]))
    with pytest.raises(ShapeMismatchError, match="state does not match"):
        adam_step(params, arrs([[1.0, 2.0]]), two_arrays)


def test_adam_rejects_non_finite_gradients():
    params = arrs([[1.0, 2.0]])
    state = adam_init(params)
    with pytest.raises(VpsepError):
        adam_step(params, arrs([[np.nan, 0.0]]), state)
    with pytest.raises(VpsepError):
        adam_step(params, arrs([[np.inf, 0.0]]), state)


def test_adam_rejected_step_changes_nothing():
    params = arrs([[1.0, 2.0]], [[3.0], [4.0]])
    state = adam_init(params)
    adam_step(params, arrs([[0.5, -0.5]], [[1.0], [2.0]]), state)
    before = [a.copy() for a in params + state.m + state.v]
    # the bad entry sits in the second array, after a valid first one
    with pytest.raises(VpsepError):
        adam_step(params, arrs([[0.5, -0.5]], [[1.0], [np.nan]]), state)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, arrs([[0.5, -0.5]], [[1.0, 2.0]]), state)
    assert state.t == 1
    for got, want in zip(params + state.m + state.v, before):
        assert np.array_equal(got, want)


def test_adam_state_validates_hyperparameters():
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), lr=0.0)
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), lr=float("nan"))
    with pytest.raises(VpsepError):
        adam_init(arrs([[1.0]]), lr=float("inf"))
    with pytest.raises(VpsepError, match="got True"):
        adam_init(arrs([[1.0]]), lr=True)
    with pytest.raises(VpsepError):
        AdamState(m=[], v=[], t=-1)
    # the decay rates and epsilon are constants, not settings
    assert [f.name for f in fields(AdamState)] == ["m", "v", "t", "lr"]
    assert (BETA1, BETA2, EPSILON) == (0.9, 0.999, 1e-8)

