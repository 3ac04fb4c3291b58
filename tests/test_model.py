import hashlib
import math
import os

import numpy as np
import pytest

from attnsum import model
from attnsum.model import (
    ENCODERS,
    Hyperparams,
    Scorer,
    StepBatch,
    attention_trace,
    backward,
    cond_dist,
    context_windows,
    enc_attention,
    enc_bow,
    enc_conv,
    init_params,
    load_model,
    loss,
    make_batch,
    param_shapes,
    read_model_header,
    save_model,
)
from attnsum.numerics import finite_diff_grad, relative_grad_error

# the tiny-model configuration used by the gradient checks
TINY = dict(vocab_size=20, embed_dim=4, hidden_dim=6, context_size=2)


def tiny_hyper(encoder):
    return Hyperparams(encoder=encoder, conv_layers=2, window=1, **TINY)


def random_pairs(hyper, rng, n_pairs=2, m=7, n=5):
    return [(rng.integers(0, hyper.vocab_size, size=m),
             rng.integers(0, hyper.vocab_size, size=n)) for _ in range(n_pairs)]


# --- independent straight-line oracles -------------------------------------
# Deliberately scalar-loop implementations sharing no code with the module.

def oracle_conv(params, hyper, x):
    h, q = hyper.hidden_dim, hyper.window
    span = 2 * q + 1
    cur = [params["F"][:, xi].copy() for xi in x]
    for l in range(1, hyper.conv_layers + 1):
        filt = params[f"Q{l}"]
        m = len(cur)
        conv = []
        for i in range(m):
            w = np.zeros(span * h)
            for off in range(span):
                j = i + off - q
                if 0 <= j < m:
                    for c in range(h):
                        w[off * h + c] = cur[j][c]
            conv.append(filt @ w)
        pooled = []
        i = 0
        while i + 1 < m:
            pooled.append(np.maximum(conv[i], conv[i + 1]))
            i += 2
        if i < m:
            pooled.append(conv[i])
        cur = [np.tanh(v) for v in pooled]
    return np.stack(cur, axis=1).max(axis=1)


def oracle_attention(params, hyper, x, y_c):
    q = hyper.window
    m = len(x)
    xe = [params["F"][:, xi] for xi in x]
    xbar = []
    for i in range(m):
        acc = np.zeros(hyper.hidden_dim)
        for j in range(i - q, i + q + 1):
            if 0 <= j < m:
                acc = acc + xe[j]
        xbar.append(acc / (2 * q + 1))
    yc = np.concatenate([params["G"][:, t] for t in y_c])
    scores = np.array([xe[i] @ (params["P"] @ yc) for i in range(m)])
    e = np.exp(scores - scores.max())
    p = e / e.sum()
    return sum(p[i] * xbar[i] for i in range(m)), p


def oracle_log_prob(params, hyper, x, y_c, y_next):
    """Scalar recomputation of log p(y_next | x, y_c) from the raw formulas."""
    ytilde = np.concatenate([params["E"][:, t] for t in y_c])
    h = np.tanh(params["U"] @ ytilde + params["b_U"])
    logits = params["V"] @ h + params["b_V"]
    if hyper.encoder != "none":
        if hyper.encoder == "bow":
            enc = np.mean([params["F"][:, xi] for xi in x], axis=0)
        elif hyper.encoder == "conv":
            enc = oracle_conv(params, hyper, x)
        else:
            enc, _ = oracle_attention(params, hyper, x, y_c)
        logits = logits + params["W"] @ enc + params["b_W"]
    return logits[y_next] - math.log(np.exp(logits - logits.max()).sum()) \
        - logits.max()


# --- shapes, init, contexts -------------------------------------------------

def test_param_shapes_per_encoder():
    base = {"E": (4, 20), "U": (6, 8), "b_U": (6,), "V": (20, 6), "b_V": (20,)}
    assert param_shapes(tiny_hyper("none")) == base
    with_enc = dict(base, W=(20, 6), b_W=(20,), F=(6, 20))
    assert param_shapes(tiny_hyper("bow")) == with_enc
    assert param_shapes(tiny_hyper("conv")) == dict(
        with_enc, Q1=(6, 18), Q2=(6, 18))
    assert param_shapes(tiny_hyper("attention")) == dict(
        with_enc, G=(4, 20), P=(6, 8))


def test_init_reproducible_and_seed_sensitive():
    hyper = tiny_hyper("attention")
    a, b = init_params(hyper, 7), init_params(hyper, 7)
    for name in a.names():
        assert np.array_equal(a[name], b[name])
    c = init_params(hyper, 8)
    assert any(not np.array_equal(a[n], c[n]) for n in a.names())


def test_init_range_and_mean():
    hyper = Hyperparams(vocab_size=400, embed_dim=50, hidden_dim=60,
                        context_size=3, encoder="attention")
    params = init_params(hyper, 0)
    values = np.concatenate([v.ravel() for _, v in params.items()])
    assert values.size > 10**5
    assert values.min() >= -0.05 and values.max() <= 0.05
    sigma_mean = (0.05 / math.sqrt(3)) / math.sqrt(values.size)
    assert abs(values.mean()) < 3 * sigma_mean


def test_context_windows_left_padding():
    got = context_windows([5, 6, 7], 2)
    assert got.tolist() == [[1, 1], [1, 5], [5, 6]]
    assert context_windows([4], 3).tolist() == [[1, 1, 1]]


def test_make_batch_rejects_bad_input():
    hyper = tiny_hyper("none")
    with pytest.raises(ValueError, match="empty"):
        make_batch([], hyper)
    with pytest.raises(ValueError, match="lengths"):
        make_batch([([1, 2], [1]), ([1, 2, 3], [1])], hyper)
    with pytest.raises(ValueError, match="out of range"):
        make_batch([([1, 99], [1])], hyper)


# --- encoder forward behavior ----------------------------------------------

def test_enc_bow_single_and_permutation():
    hyper = tiny_hyper("bow")
    params = init_params(hyper, 3)
    assert np.allclose(enc_bow(params, [4]), params["F"][:, 4])
    x = [3, 9, 3, 1, 14]
    perm = [14, 3, 1, 9, 3]
    assert np.allclose(enc_bow(params, x), enc_bow(params, perm))
    direct = (params["F"][:, 2] + params["F"][:, 5] + params["F"][:, 11]) / 3
    assert np.allclose(enc_bow(params, [2, 5, 11]), direct)


def test_enc_conv_matches_straight_line_oracle():
    hyper = tiny_hyper("conv")
    rng = np.random.default_rng(0)
    for seed in range(5):
        params = init_params(hyper, seed)
        x = rng.integers(0, hyper.vocab_size, size=8)
        assert np.allclose(enc_conv(params, hyper, x),
                           oracle_conv(params, hyper, x), atol=1e-12)


def test_enc_conv_identity_filter_reduces_to_max():
    # L=1, Q=0, identity filter, activation disabled: max over embeddings
    hyper = Hyperparams(vocab_size=10, embed_dim=4, hidden_dim=5,
                        context_size=2, encoder="conv", conv_layers=1,
                        window=0)
    params = init_params(hyper, 1)
    params["Q1"] = np.eye(5)
    x = [1, 4, 7, 2, 9]
    got = enc_conv(params, hyper, x, activation=lambda v: v)
    assert np.allclose(got, params["F"][:, x].max(axis=1))


def test_enc_conv_constant_input_width_invariance():
    # with Q=0 no window touches the zero padding, so a constant signal
    # gives the same output at every length (Q>=1 breaks this at the edges)
    hyper = Hyperparams(vocab_size=10, embed_dim=4, hidden_dim=5,
                        context_size=2, encoder="conv", conv_layers=2,
                        window=0)
    params = init_params(hyper, 2)
    ref = enc_conv(params, hyper, [6] * 4)  # 2^L tokens
    for m in (1, 3, 5, 9):
        assert np.allclose(enc_conv(params, hyper, [6] * m), ref)


def test_enc_conv_order_sensitive():
    hyper = tiny_hyper("conv")
    params = init_params(hyper, 5)
    a = enc_conv(params, hyper, [1, 2, 3, 4, 5, 6])
    b = enc_conv(params, hyper, [6, 5, 4, 3, 2, 1])
    assert not np.allclose(a, b)


def test_enc_attention_matches_oracle_and_sums_to_one():
    hyper = tiny_hyper("attention")
    rng = np.random.default_rng(1)
    for seed in range(5):
        params = init_params(hyper, seed)
        x = rng.integers(0, hyper.vocab_size, size=5)
        y_c = rng.integers(0, hyper.vocab_size, size=hyper.context_size)
        vec, p = enc_attention(params, hyper, x, y_c)
        ovec, op = oracle_attention(params, hyper, x, y_c)
        assert np.allclose(vec, ovec, atol=1e-12)
        assert np.allclose(p, op, atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12


def test_enc_attention_singleton_input():
    hyper = tiny_hyper("attention")
    params = init_params(hyper, 9)
    vec, p = enc_attention(params, hyper, [7], [3, 4])
    assert np.allclose(p, [1.0])
    xbar = params["F"][:, 7] / (2 * hyper.window + 1)
    assert np.allclose(vec, xbar)


def test_enc_attention_zero_p_is_smoothed_bow():
    hyper = tiny_hyper("attention")
    params = init_params(hyper, 10)
    params["P"] = np.zeros_like(params["P"])
    x = [2, 4, 6, 8]
    vec, p = enc_attention(params, hyper, x, [1, 1])
    assert np.allclose(p, np.full(4, 0.25))
    xe = params["F"][:, x].T
    xbar = np.zeros_like(xe)
    q = hyper.window
    for i in range(4):
        lo, hi = max(0, i - q), min(4, i + q + 1)
        xbar[i] = xe[lo:hi].sum(axis=0) / (2 * q + 1)
    assert np.allclose(vec, xbar.mean(axis=0))


def test_attention_context_sensitivity_and_bow_conv_independence():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 20, size=6)
    ctx_a = np.array([3, 4])
    ctx_b = np.array([9, 12])
    for encoder, varies in (("bow", False), ("conv", False),
                            ("attention", True)):
        hyper = tiny_hyper(encoder)
        params = init_params(hyper, 11)
        if encoder == "bow":
            va, vb = enc_bow(params, x), enc_bow(params, x)
        elif encoder == "conv":
            va = enc_conv(params, hyper, x)
            vb = enc_conv(params, hyper, x)
        else:
            va, _ = enc_attention(params, hyper, x, ctx_a)
            vb, _ = enc_attention(params, hyper, x, ctx_b)
        assert np.allclose(va, vb) != varies


# --- conditional distribution ----------------------------------------------

def test_cond_dist_zero_params_is_uniform():
    for encoder in ENCODERS:
        hyper = tiny_hyper(encoder)
        params = init_params(hyper, 0)
        for name in params.names():
            params[name] = np.zeros_like(params[name])
        dist = cond_dist(params, hyper, [1, 2, 3], [1, 1])
        assert np.allclose(dist, np.full(20, 0.05), atol=1e-15)


def test_cond_dist_sums_to_one_all_encoders():
    rng = np.random.default_rng(3)
    for encoder in ENCODERS:
        hyper = tiny_hyper(encoder)
        for seed in range(5):
            params = init_params(hyper, seed)
            x = rng.integers(0, 20, size=rng.integers(1, 9))
            y_c = rng.integers(0, 20, size=2)
            dist = cond_dist(params, hyper, x, y_c)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert dist.min() > 0


def test_cond_dist_none_ignores_input():
    hyper = tiny_hyper("none")
    params = init_params(hyper, 4)
    a = cond_dist(params, hyper, [1, 2, 3], [5, 6])
    b = cond_dist(params, hyper, [17, 8], [5, 6])
    assert np.array_equal(a, b)


def test_cond_dist_log_prob_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for encoder in ENCODERS:
        hyper = tiny_hyper(encoder)
        params = init_params(hyper, 6)
        x = rng.integers(0, 20, size=7)
        y_c = rng.integers(0, 20, size=2)
        y_next = int(rng.integers(0, 20))
        dist = cond_dist(params, hyper, x, y_c)
        assert math.isclose(math.log(dist[y_next]),
                            oracle_log_prob(params, hyper, x, y_c, y_next),
                            rel_tol=0, abs_tol=1e-10)


def test_cond_dist_rejects_out_of_range():
    hyper = tiny_hyper("bow")
    params = init_params(hyper, 0)
    with pytest.raises(ValueError, match="out of range"):
        cond_dist(params, hyper, [1, 20], [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        cond_dist(params, hyper, [1, 2], [1, -1])


# --- loss and gradients ------------------------------------------------------

def test_loss_matches_per_token_oracle():
    rng = np.random.default_rng(6)
    for encoder in ENCODERS:
        hyper = tiny_hyper(encoder)
        params = init_params(hyper, 7)
        pairs = random_pairs(hyper, rng)
        batch = make_batch(pairs, hyper)
        expected = 0.0
        for x, y in pairs:
            for ctx, tgt in zip(context_windows(y, 2), y):
                expected -= oracle_log_prob(params, hyper, x, ctx, tgt)
        assert math.isclose(loss(params, hyper, batch), expected,
                            rel_tol=1e-12)


def test_backward_duplicated_batch_doubles_gradients():
    hyper = tiny_hyper("attention")
    params = init_params(hyper, 8)
    rng = np.random.default_rng(7)
    pairs = random_pairs(hyper, rng, n_pairs=1)
    single = make_batch(pairs, hyper)
    double = make_batch(pairs * 2, hyper)
    nll1 = backward(params, hyper, single)
    grads1 = {n: params.grad(n).copy() for n in params.names()}
    params.zero_grads()
    nll2 = backward(params, hyper, double)
    assert math.isclose(nll2, 2 * nll1, rel_tol=1e-12)
    for name in params.names():
        assert np.allclose(params.grad(name), 2 * grads1[name], atol=1e-12)


def test_backward_zero_params_output_bias_pattern():
    hyper = tiny_hyper("bow")
    params = init_params(hyper, 0)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    batch = make_batch([([1, 2, 3], [9])], hyper)
    backward(params, hyper, batch)
    expected = np.full(20, 1 / 20)
    expected[9] -= 1.0
    assert np.allclose(params.grad("b_V"), expected, atol=1e-12)
    assert np.allclose(params.grad("b_W"), expected, atol=1e-12)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_gradients_match_finite_differences(encoder):
    hyper = tiny_hyper(encoder)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        params = init_params(hyper, seed)
        batch = make_batch(random_pairs(hyper, rng), hyper)
        params.zero_grads()
        backward(params, hyper, batch)
        numeric = finite_diff_grad(lambda p: loss(p, hyper, batch), params)
        for name in params.names():
            err = relative_grad_error(params.grad(name), numeric[name])
            assert err < 1e-4, f"{encoder}/{name} rel err {err}"


# --- scorer and trace ---------------------------------------------------------

def test_scorer_matches_cond_dist():
    rng = np.random.default_rng(8)
    for encoder in ENCODERS:
        hyper = tiny_hyper(encoder)
        params = init_params(hyper, 12)
        x = rng.integers(0, 20, size=6)
        scorer = Scorer(params, hyper, x)
        contexts = rng.integers(0, 20, size=(4, 2))
        logp = scorer.step_scores(contexts)
        for k in range(4):
            direct = np.log(cond_dist(params, hyper, x, contexts[k]))
            assert np.allclose(logp[k], direct, atol=1e-10)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_scorer_matches_scalar_oracle(encoder):
    rng = np.random.default_rng(14)
    hyper = tiny_hyper(encoder)
    params = init_params(hyper, 15)
    x = rng.integers(0, 20, size=6)
    contexts = rng.integers(0, 20, size=(4, 2))
    logp = Scorer(params, hyper, x).step_scores(contexts)
    for k in range(4):
        for y_next in range(20):
            want = oracle_log_prob(params, hyper, x, contexts[k], y_next)
            assert math.isclose(logp[k, y_next], want, rel_tol=0,
                                abs_tol=1e-10)


def test_attention_trace_rows_are_distributions():
    hyper = tiny_hyper("attention")
    params = init_params(hyper, 13)
    rng = np.random.default_rng(9)
    x = rng.integers(0, 20, size=6)
    y = rng.integers(0, 20, size=4)
    trace = attention_trace(params, hyper, x, y)
    assert trace.shape == (4, 6)
    assert np.allclose(trace.sum(axis=1), 1.0, atol=1e-9)
    # rows replay enc_attention's p at each step
    for ctx, row in zip(context_windows(y, 2), trace):
        _, p = enc_attention(params, hyper, x, ctx)
        assert np.allclose(row, p, atol=1e-12)


def test_trace_requires_attention_encoder():
    hyper = tiny_hyper("bow")
    params = init_params(hyper, 0)
    with pytest.raises(ValueError, match="attention"):
        attention_trace(params, hyper, [1, 2], [3])


# --- serialization -------------------------------------------------------------

@pytest.mark.parametrize("encoder", ENCODERS)
def test_model_file_roundtrip(encoder, tmp_path):
    hyper = tiny_hyper(encoder)
    params = init_params(hyper, 21)
    path = tmp_path / "model.bin"
    save_model(path, params, hyper)
    loaded, hyper2 = load_model(path)
    assert hyper2 == hyper
    assert sorted(loaded.names()) == sorted(params.names())
    for name in params.names():
        arr = loaded[name]
        assert np.array_equal(arr, params[name])
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable
    header = read_model_header(path)
    assert header["format_version"] == 1
    assert header["hyperparams"] == hyper
    assert header["tensors"]["E"] == (4, 20)


def test_save_model_is_atomic(tmp_path, disk_full_after):
    hyper = tiny_hyper("conv")
    path = tmp_path / "model.bin"
    save_model(path, init_params(hyper, 21), hyper)
    before = path.read_bytes()
    disk_full_after(len(before) // 2)
    with pytest.raises(OSError):
        save_model(path, init_params(hyper, 22), hyper)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.bin"]


def test_model_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_saved_model_decodes_identically(tmp_path):
    hyper = tiny_hyper("attention")
    params = init_params(hyper, 22)
    path = tmp_path / "model.bin"
    save_model(path, params, hyper)
    loaded, _ = load_model(path)
    x = [3, 1, 4, 1, 5]
    a = cond_dist(params, hyper, x, [1, 1])
    b = cond_dist(loaded, hyper, x, [1, 1])
    assert np.array_equal(a, b)


# --- exact kernels against plain numpy references ---------------------------
# Each reference below is the straightforward numpy formulation; the kernels
# must equal it bit for bit, signed zeros included.

def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def awkward_values(rng, shape):
    """Normal draws scaled by 1e-300..1e300, with +0.0 and -0.0 sprinkled in."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
    pick = rng.random(size=shape)
    vals[pick < 0.15] = 0.0
    vals[pick > 0.85] = -0.0
    return vals


def reference_box_mean(xe, q):
    if q == 0:
        return xe.copy()
    pad = [(0, 0)] * xe.ndim
    pad[-2] = (q, q)
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(xe, pad), 2 * q + 1, axis=xe.ndim - 2)
    return win.sum(axis=-1) / (2 * q + 1)


def test_box_mean_matches_window_sum_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(400):
        q = trial % 4
        shape = tuple(rng.integers(1, 6, size=rng.integers(2, 4)))
        xe = awkward_values(rng, shape)
        if trial % 3 == 0:
            xe = rng.choice([0.0, -0.0, 1.5, -2.25], size=shape)
        assert same_bits(model._box_mean(xe, q), reference_box_mean(xe, q))


def test_scatter_columns_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(32)
    for trial in range(200):
        d, v = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        ids = rng.integers(0, v, size=tuple(rng.integers(1, 12, size=2)))
        vals = awkward_values(rng, (d,) + ids.shape)
        if trial % 2:
            # values of wildly different size: the order of addition shows
            vals = rng.normal(size=vals.shape) * 10.0 ** rng.integers(
                -8, 9, size=vals.shape)
        if trial % 5 == 0:  # a (D, P, 1) value broadcast along each row
            vals = vals[:, :, :1]
        want = np.zeros((d, v))
        np.add.at(want, (slice(None), ids), vals)
        got = np.zeros((d, v))
        model._scatter_columns(got, ids, vals)
        assert same_bits(got, want)


def reference_batch(pairs, context_size):
    return StepBatch(
        x=np.array([x for x, _ in pairs], dtype=np.int64),
        pair_of=np.concatenate([np.full(len(y), p, dtype=np.int64)
                                for p, (_, y) in enumerate(pairs)]),
        ctx=np.concatenate([context_windows(y, context_size)
                            for _, y in pairs]),
        target=np.concatenate([np.asarray(y, dtype=np.int64)
                               for _, y in pairs]))


def assert_same_batch(got, want):
    for field in ("x", "pair_of", "ctx", "target"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_step_table_batches_match_per_pair_context_windows():
    rng = np.random.default_rng(33)
    for c in (1, 2, 5):  # 5 is longer than most heads below
        hyper = Hyperparams(vocab_size=30, embed_dim=2, hidden_dim=2,
                            context_size=c)
        pairs = [(list(rng.integers(0, 30, size=int(rng.integers(1, 4)))),
                  list(rng.integers(0, 30, size=int(rng.integers(1, 7)))))
                 for _ in range(40)]
        table = model.step_table(pairs, hyper)
        for m in (1, 2, 3):
            idx = [i for i in rng.permutation(len(pairs))
                   if len(pairs[i][0]) == m]
            chosen = [pairs[i] for i in idx]
            assert_same_batch(table.batch(idx), reference_batch(chosen, c))
            assert_same_batch(make_batch(chosen, hyper),
                              reference_batch(chosen, c))


def per_run_attention(cache):
    """attn, encvec of a forward cache, one run of steps at a time."""
    pre, query = cache["pre"], cache["query"]
    attn = np.empty((len(query), pre["xe"].shape[1]))
    encvec = np.empty_like(query)
    for p, lo, hi in cache["runs"]:
        attn[lo:hi] = model.softmax_rows(query[lo:hi] @ pre["xe"][p].T)
        encvec[lo:hi] = attn[lo:hi] @ pre["xbar"][p]
    return attn, encvec


def per_run_attention_grads(params, hyper, cache, denc):
    """d(P), d(G), d(F) from d(encvec) = denc, one run at a time, scattered
    with np.add.at."""
    pre, attn, query = cache["pre"], cache["attn"], cache["query"]
    xe, xbar = pre["xe"], pre["xbar"]
    dquery = np.empty_like(query)
    dxe, dxbar = np.zeros(xe.shape), np.zeros(xbar.shape)
    for p, lo, hi in cache["runs"]:
        a, d = attn[lo:hi], denc[lo:hi]
        da = d @ xbar[p].T
        dscores = a * (da - (a * da).sum(axis=1, keepdims=True))
        dquery[lo:hi] = dscores @ xe[p]
        dxe[p] += dscores.T @ query[lo:hi]
        dxbar[p] += a.T @ d
    ctx, t = cache["ctx"], len(query)
    dctx_g = (dquery @ params["P"]).reshape(t, hyper.context_size, -1)
    grads = {"P": dquery.T @ cache["ctx_g"],
             "G": np.zeros(params["G"].shape), "F": np.zeros(params["F"].shape)}
    np.add.at(grads["G"], (slice(None), ctx), dctx_g.transpose(2, 0, 1))
    dxe += reference_box_mean(dxbar, hyper.window)
    np.add.at(grads["F"], (slice(None), pre["x"]), dxe.transpose(2, 0, 1))
    return grads


@pytest.mark.parametrize("head_lengths", [(4, 4, 4), (1, 1), (3, 5, 2, 3)])
def test_stacked_attention_matches_per_run_loop(head_lengths):
    rng = np.random.default_rng(34)
    hyper = Hyperparams(vocab_size=20, embed_dim=3, hidden_dim=5,
                        context_size=2, encoder="attention", window=2)
    params = init_params(hyper, 35)
    for name in params.names():
        params[name] = rng.normal(size=params[name].shape)
    pairs = [(rng.integers(0, 20, size=6), rng.integers(0, 20, size=n))
             for n in head_lengths]
    batch = make_batch(pairs, hyper)
    cache = model.forward(params, hyper, batch)
    attn, encvec = per_run_attention(cache)
    assert same_bits(cache["attn"], attn)
    assert same_bits(cache["encvec"], encvec)
    denc = rng.normal(size=encvec.shape)
    params.zero_grads()
    model._attention_backward(params, hyper, cache, denc)
    want = per_run_attention_grads(params, hyper, cache, denc)
    for name in ("P", "G", "F"):
        assert same_bits(params.grad(name), want[name]), name


def test_pool_pairs_matches_argmax_rule():
    rng = np.random.default_rng(36)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
    for trial in range(200):
        n_p, m, h = (int(v) for v in rng.integers(1, 7, size=3))
        z = rng.choice(special, size=(n_p, m, h))
        if trial % 2:
            z = np.where(rng.random(z.shape) < 0.5, z,
                         rng.normal(size=z.shape))
        n_pair = m // 2
        pair = z[:, :2 * n_pair].reshape(n_p, n_pair, 2, h)
        arg = pair.argmax(axis=2)
        want = np.take_along_axis(pair, arg[:, :, None], axis=2)[:, :, 0]
        pooled, amax = model._pool_pairs(z)
        assert same_bits(pooled, want)
        assert np.array_equal(amax, arg == 1)
    # a -0.0/+0.0 tie keeps the even step's zero, as argmax does
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        pooled, amax = model._pool_pairs(np.array([[[first], [second]]]))
        assert not amax.any() and same_bits(pooled, np.array([[[first]]]))


def conv_gradient_digest(window, hidden_dim, n_pairs):
    """sha256 prefix of every gradient of one backward pass of a two-layer
    conv model over the first n_pairs of five seeded pairs."""
    rng = np.random.default_rng(2024)
    pairs = [(rng.integers(3, 16, size=7), rng.integers(3, 16, size=n))
             for n in (3, 2, 4, 3, 1)][:n_pairs]
    hyper = Hyperparams(vocab_size=16, embed_dim=3, hidden_dim=hidden_dim,
                        context_size=2, encoder="conv", conv_layers=2,
                        window=window)
    params = init_params(hyper, 9)
    backward(params, hyper, make_batch(pairs, hyper))
    digest = hashlib.sha256()
    for name in params.names():
        digest.update(params.grad(name).tobytes())
    return digest.hexdigest()[:16]


# conv_gradient_digest(window, hidden_dim, n_pairs), recorded once and kept
# as they are. The dQ einsum's order of summation follows the memory order
# of the window matrix, so these pin it to the last bit where a training
# history would not: a last-bit change to a filter gradient of about 1e-4
# is lost in the update of a filter entry of about 0.05. Window 0 pins both
# layouts of the one-step window matrix: time-major for a single row's
# first layer, channel-major otherwise. hidden_dim 1 pins the products of
# a one-channel window matrix.
GOLDEN_CONV_GRADIENTS = {
    (0, 8, 1): "990bfff273aa9125",
    (0, 8, 5): "67153948d58dde9f",
    (1, 1, 1): "fef8d0e86635d112",
    (1, 1, 5): "b5c993b051b61d36",
}


def test_golden_conv_gradients():
    got = {key: conv_gradient_digest(*key) for key in GOLDEN_CONV_GRADIENTS}
    assert got == GOLDEN_CONV_GRADIENTS
