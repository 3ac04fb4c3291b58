import math

import numpy as np
import pytest

from attnsum.numerics import (
    ParamStore,
    finite_diff_grad,
    log_softmax_rows,
    relative_grad_error,
    softmax_rows,
)


def row_softmaxes(v):
    """The softmax of one vector by each row function, as 1-D arrays."""
    row = np.asarray(v, dtype=np.float64)[None, :]
    return softmax_rows(row)[0], np.exp(log_softmax_rows(row)[0])


def test_softmax_symmetry():
    for p in row_softmaxes([0.0, 0.0, 0.0]):
        np.testing.assert_allclose(p, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_shift_invariance_ratio():
    # [c, c + ln 2] -> [1/3, 2/3] for any c
    for c in (-100.0, 0.0, 3.25, 700.0):
        for p in row_softmaxes([c, c + math.log(2.0)]):
            np.testing.assert_allclose(p, [1 / 3, 2 / 3], atol=1e-12)


def test_softmax_scalar_oracle():
    # expected values from direct scalar exp/sum, independent of the array path
    v = [1.0, 2.0, 3.0]
    exps = [math.exp(x) for x in v]
    total = sum(exps)
    expected = [e / total for e in exps]
    for p in row_softmaxes(v):
        np.testing.assert_allclose(p, expected, atol=1e-15)
    np.testing.assert_allclose(log_softmax_rows(np.array([v]))[0],
                               [math.log(e) for e in expected], atol=1e-15)


def test_softmax_sums_to_one_and_shift_invariant_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 40)) * 10.0
        shift = float(rng.normal() * 100.0)
        for p, q in zip(row_softmaxes(v), row_softmaxes(v + shift)):
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0) and np.all(p <= 1.0)
            assert np.argmax(q) == np.argmax(p)
            np.testing.assert_allclose(q, p, atol=1e-12)


def test_softmax_no_overflow_on_extreme_finite_input():
    v = np.array([709.0, 710.0, -745.0])
    for p in row_softmaxes(v):
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(np.isfinite(log_softmax_rows(v[None, :])))


def test_finite_diff_sum_of_squares():
    store = ParamStore()
    store.register("v", [1.0, 2.0])

    def loss(p):
        return float(np.sum(p["v"] ** 2))

    grads = finite_diff_grad(loss, store, eps=1e-5)
    np.testing.assert_allclose(grads["v"], [2.0, 4.0], atol=1e-6)
    # params restored exactly
    np.testing.assert_array_equal(store["v"], [1.0, 2.0])


def test_finite_diff_constant_loss():
    store = ParamStore()
    store.register("a", np.arange(6.0).reshape(2, 3))
    grads = finite_diff_grad(lambda p: 7.5, store)
    np.testing.assert_array_equal(grads["a"], np.zeros((2, 3)))


def test_param_store_contract():
    store = ParamStore()
    store.register("a", np.ones((2, 2)))
    with pytest.raises(ValueError):
        store.register("a", np.ones(3))
    assert store.grad("a").shape == (2, 2)
    store.grad("a")[...] = 5.0
    store.zero_grads()
    np.testing.assert_array_equal(store.grad("a"), np.zeros((2, 2)))
    assert store.names() == ["a"]
