"""Dense float64 numerics underlying the summarization model.

Tensors are plain numpy float64 C-order arrays. Everything here is
deterministic: reductions follow numpy's fixed order, so repeated runs on one
machine are bit-identical. The central-difference gradient oracle
(`finite_diff_grad`) is deliberately written as scalar loops so it shares no
code path with the vectorized analytic backward passes it is used to check.
"""

import numpy as np


def as_tensor(data):
    """Coerce to a C-order float64 array; raises ValueError unless every
    value is finite."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values in tensor")
    return arr


def softmax_rows(m):
    """Row-wise stable softmax: over the last axis of a 2-D or stacked
    (..., rows, cols) array."""
    m = np.asarray(m, dtype=np.float64)
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(m):
    """Row-wise log-softmax: m - max - log(sum(exp(m - max)))."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class ParamStore:
    """Named map of parameter tensors with same-shape gradient accumulators.

    Names are unique; insertion order is preserved and used wherever a
    deterministic iteration order matters.
    """

    def __init__(self):
        self._params = {}
        self._grads = {}

    def register(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = as_tensor(value)
        self._params[name] = arr
        return arr

    def __contains__(self, name):
        return name in self._params

    def __getitem__(self, name):
        return self._params[name]

    def __setitem__(self, name, value):
        if name not in self._params:
            raise KeyError(name)
        arr = as_tensor(value)
        if arr.shape != self._params[name].shape:
            raise ValueError(f"shape change for parameter {name!r}")
        self._params[name] = arr

    def grad(self, name):
        """The parameter's gradient accumulator, allocated zeroed at first
        use, so that loading a model to decode allocates no gradients:
        np.zeros leaves them untouched pages only while the allocator maps
        fresh memory for them, which depends on what it freed earlier."""
        if name not in self._grads:
            self._grads[name] = np.zeros(self._params[name].shape)
        return self._grads[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0


def finite_diff_grad(loss_fn, params, eps=1e-5):
    """Central-difference gradient of loss_fn at params, per coordinate.

    loss_fn must be deterministic. Perturbs each coordinate in place by +/-eps
    and restores it exactly. Returns {name: gradient array}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grads = {}
    for name, value in params.items():
        grad = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = loss_fn(params)
            flat[i] = orig - eps
            minus = loss_fn(params)
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * eps)
        grads[name] = grad
    return grads


def relative_grad_error(analytic, numeric, floor=1e-5):
    """Max per-coordinate relative error |a - n| / max(|a|, |n|, floor).

    The denominator floor absorbs the central-difference oracle's own noise:
    each loss evaluation carries ~|loss|*eps_machine rounding error, so the
    difference quotient is only accurate to about |loss|*eps_machine/eps
    (~1e-9 for unit-scale losses at eps=1e-5). Coordinates whose true
    magnitude sits below the floor are therefore compared absolutely; above
    it the comparison is genuinely relative.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
