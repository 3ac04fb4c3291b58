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
