import hashlib
import itertools
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


def test_tensor_count_matches_param_shapes():
    for encoder, layers in itertools.product(ENCODERS, (1, 2, 5)):
        hyper = Hyperparams(encoder=encoder, conv_layers=layers, window=1,
                            **TINY)
        assert model._tensor_count(hyper) == len(param_shapes(hyper))


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
    # L=1, Q=0, identity filter: tanh of the max over embeddings, as tanh
    # is increasing
    hyper = Hyperparams(vocab_size=10, embed_dim=4, hidden_dim=5,
                        context_size=2, encoder="conv", conv_layers=1,
                        window=0)
    params = init_params(hyper, 1)
    params["Q1"] = np.eye(5)
    x = [1, 4, 7, 2, 9]
    got = enc_conv(params, hyper, x)
    assert np.allclose(got, np.tanh(params["F"][:, x].max(axis=1)))


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


INPUT_ENTRY_POINTS = {
    "cond_dist": lambda params, hyper, x: cond_dist(params, hyper, x, [1, 1]),
    "enc_bow": lambda params, hyper, x: enc_bow(params, x),
    "enc_conv": enc_conv,
    "Scorer": Scorer,
}


@pytest.mark.parametrize("entry", sorted(INPUT_ENTRY_POINTS))
@pytest.mark.parametrize("x", [[[1, 2, 3], [4, 5, 6]], [], [1, 20], [-1, 2]],
                         ids=["2-D", "empty", "too large", "negative"])
def test_entry_points_reject_bad_input(entry, x):
    hyper = tiny_hyper("conv")
    params = init_params(hyper, 0)
    with pytest.raises(ValueError, match="nonempty id sequence"):
        INPUT_ENTRY_POINTS[entry](params, hyper, x)


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


def out_of_place_log_softmax(m):
    """The log-softmax formula written out of place, with its own buffers:
    the in-place form must give its bits."""
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("k, vocab", [(1, 5000), (8, 5000), (8, 20000),
                                      (128, 200)])
def test_step_scores_match_out_of_place_log_softmax(k, vocab):
    hyper = Hyperparams(vocab_size=vocab, embed_dim=6, hidden_dim=10,
                        context_size=3, encoder="attention", window=1)
    params = init_params(hyper, k)
    rng = np.random.default_rng(vocab + k)
    x = rng.integers(3, vocab, size=9)
    contexts = rng.integers(0, vocab, size=(k, 3))
    for scale in (1.0, 30.0):  # logits near 0, and spread over tens
        for name in params.names():
            params[name] = scale * params[name]
        logits, _ = model.encode(
            params, hyper, model.precompute(params, hyper, x[None, :]),
            contexts, [k])
        got = Scorer(params, hyper, x).step_scores(contexts)
        assert same_bits(got, out_of_place_log_softmax(logits))


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("vocab", [200, 5000])
def test_stacked_matmul_gives_each_slice_its_2d_product(k, vocab):
    """A decode step of S sentences runs its dense products stacked,
    (S, K, H) @ (H, V), and holds each sentence's rows to the bits of its
    own (K, H) @ (H, V) product. That needs numpy to run one product per
    slice; one that folded the stack into an (S*K, H) gemm would change
    bits, at K=1 above all."""
    rng = np.random.default_rng(k * vocab)
    w = rng.normal(size=(vocab, 100))
    for s in (2, 10):
        a = rng.normal(size=(s, k, 100))
        stacked = a @ w.T
        assert all(same_bits(stacked[i], a[i] @ w.T) for i in range(s))


@pytest.mark.parametrize("encoder", ENCODERS)
def test_stacked_step_scores_match_each_scorers_own(encoder):
    """One stacked step of S sentences against each sentence's own
    step_scores, bit for bit, at K=1 and K=4. Attention scorers share a
    step only at one input length; the others at any."""
    hyper = Hyperparams(vocab_size=300, embed_dim=6, hidden_dim=10,
                        context_size=3, encoder=encoder, conv_layers=2,
                        window=1)
    params = init_params(hyper, 41)
    for name in params.names():
        params[name] = 30.0 * params[name]
    rng = np.random.default_rng(41)
    lengths = (9, 9, 9) if encoder == "attention" else (9, 4, 12)
    scorers = [Scorer(params, hyper, rng.integers(3, 300, size=m))
               for m in lengths]
    assert len({s.stack_key for s in scorers}) == 1
    for k in (1, 4):
        contexts = rng.integers(0, 300, size=(len(scorers), k, 3))
        got = Scorer.stacked_step_scores(scorers, contexts)
        for scorer, block, row in zip(scorers, contexts, got):
            assert same_bits(row, scorer.step_scores(block))
    if encoder == "attention":
        assert Scorer(params, hyper, [3] * 8).stack_key != scorers[0].stack_key


@pytest.mark.parametrize("encoder", ENCODERS)
def test_forward_logp_matches_out_of_place_log_softmax(encoder):
    hyper = tiny_hyper(encoder)
    params = init_params(hyper, 21)
    rng = np.random.default_rng(21)
    batch = make_batch(random_pairs(hyper, rng, n_pairs=3), hyper)
    logits, _ = model.encode(
        params, hyper, model.precompute(params, hyper, batch.x), batch.ctx,
        batch.lengths.tolist())
    assert same_bits(model.forward(params, hyper, batch)["logp"],
                     out_of_place_log_softmax(logits))


@pytest.mark.parametrize("encoder", ["bow", "attention"])
def test_backward_holds_two_logit_arrays(encoder):
    """A V=20k backward pass peaks at the logits plus one array of their
    shape: the exp in the log-softmax, or attention's encoder share of the
    logits. The log-probs are normalised in the logits' buffer and dlogits
    is computed in theirs."""
    import tracemalloc
    hyper = Hyperparams(vocab_size=20000, embed_dim=4, hidden_dim=6,
                        context_size=2, encoder=encoder, window=1)
    params = init_params(hyper, 5)
    rng = np.random.default_rng(5)
    batch = make_batch([(rng.integers(3, 20000, size=9),
                         rng.integers(3, 20000, size=10))
                        for _ in range(16)], hyper)
    backward(params, hyper, batch)  # allocates the gradients
    logit_bytes = 8 * len(batch.target) * hyper.vocab_size  # 25.6 MB
    tracemalloc.start()
    try:
        backward(params, hyper, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack for the smaller arrays: bow's (P, V) encoder logits and their
    # gradient (2.56 MB each), (V, H) gradient temporaries (0.96 MB each)
    assert peak < 2 * logit_bytes + (4 << 20)


def reference_batch(pairs, context_size):
    return StepBatch(
        x=np.array([x for x, _ in pairs], dtype=np.int64),
        lengths=np.array([len(y) for _, y in pairs], dtype=np.int64),
        ctx=np.concatenate([context_windows(y, context_size)
                            for _, y in pairs]),
        target=np.concatenate([np.asarray(y, dtype=np.int64)
                               for _, y in pairs]))


def assert_same_batch(got, want):
    for field in ("x", "lengths", "ctx", "target"):
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


def row_runs(lengths):
    """(row, lo, hi) of each row's run of steps, the runs row after row."""
    hi = 0
    for p, n in enumerate(lengths):
        hi += n
        yield p, hi - n, hi


def per_run_attention(cache):
    """attn, encvec of a forward cache, one run of steps at a time."""
    pre, query = cache["pre"], cache["query"]
    attn = np.empty((len(query), pre["xe"].shape[1]))
    encvec = np.empty_like(query)
    for p, lo, hi in row_runs(cache["lengths"]):
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
    for p, lo, hi in row_runs(cache["lengths"]):
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


def per_run_row_logits(params, cache):
    """bow/conv logits of a forward cache: each run of steps adds its row's
    enc_logit, one run at a time."""
    logits = cache["h"] @ params["V"].T + params["b_V"]
    for p, lo, hi in row_runs(cache["lengths"]):
        logits[lo:hi] += cache["pre"]["enc_logit"][p]
    return logits


def per_run_row_grads(params, hyper, cache, dlogits):
    """d(W), d(F) (and conv's d(Q)) from dlogits, each run's dlogits summed
    into its row one run at a time; bow's F scattered with np.add.at."""
    pre = cache["pre"]
    denc_logit = np.zeros(pre["enc_logit"].shape)
    for p, lo, hi in row_runs(cache["lengths"]):
        denc_logit[p] += dlogits[lo:hi].sum(axis=0)
    drows = denc_logit @ params["W"]
    grads = {name: np.zeros(params[name].shape) for name in params.names()}
    grads["W"] = denc_logit.T @ pre["rows"]
    if hyper.encoder == "bow":
        m = pre["x"].shape[1]
        np.add.at(grads["F"], (slice(None), pre["x"]),
                  (drows.T / m)[:, :, None])
    else:
        model._conv_rows_backward(params, hyper, pre["x"], pre["conv"],
                                  drows, grads.__getitem__)
    return grads


# (2, 4, 3, 3) is ragged but holds a whole number of steps per row
@pytest.mark.parametrize("head_lengths", [(4, 4, 4), (1, 1), (3, 5, 2, 3),
                                          (2, 4, 3, 3)])
def test_stacked_attention_matches_per_run_loop(head_lengths):
    """The stacked runs of encode and of the attention and bow/conv backward
    passes against per-run loops, bit for bit."""
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
    for encoder in ("bow", "conv"):
        hyper = Hyperparams(vocab_size=20, embed_dim=3, hidden_dim=5,
                            context_size=2, encoder=encoder, conv_layers=2,
                            window=1)
        params = init_params(hyper, 36)
        for name in params.names():
            params[name] = rng.normal(size=params[name].shape)
        logits, cache = model.encode(
            params, hyper, model.precompute(params, hyper, batch.x),
            batch.ctx, batch.lengths.tolist())
        assert same_bits(logits, per_run_row_logits(params, cache)), encoder
        dlogits = rng.normal(size=logits.shape)
        params.zero_grads()
        model._rows_backward(params, hyper, cache, dlogits)
        want = per_run_row_grads(params, hyper, cache, dlogits)
        for name in params.names():
            assert same_bits(params.grad(name), want[name]), (encoder, name)


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


def conv_gradient_digests(window, hidden_dim, n_pairs):
    """sha256 prefixes of the gradients of one backward pass of a two-layer
    conv model over the first n_pairs of five seeded pairs: (every gradient
    but the filters', the filters' Q1 and Q2)."""
    rng = np.random.default_rng(2024)
    pairs = [(rng.integers(3, 16, size=7), rng.integers(3, 16, size=n))
             for n in (3, 2, 4, 3, 1)][:n_pairs]
    hyper = Hyperparams(vocab_size=16, embed_dim=3, hidden_dim=hidden_dim,
                        context_size=2, encoder="conv", conv_layers=2,
                        window=window)
    params = init_params(hyper, 9)
    backward(params, hyper, make_batch(pairs, hyper))
    others, filters = hashlib.sha256(), hashlib.sha256()
    for name in params.names():
        (filters if name.startswith("Q") else others).update(
            params.grad(name).tobytes())
    return others.hexdigest()[:16], filters.hexdigest()[:16]


# conv_gradient_digests(window, hidden_dim, n_pairs): last-bit pins that a
# training history cannot give (a last-bit change to a filter gradient of
# about 1e-4 is lost in the update of a filter entry of about 0.05). The
# first digest covers every gradient but the filters' and is kept as it is.
# The second covers Q1 and Q2, which one gemm sums over all P*m positions:
# a change of that order of summation moves it, and must say so.
GOLDEN_CONV_GRADIENTS = {
    (0, 8, 1): ("60f6ca3fe3af710d", "f40f4a44da835f23"),
    (0, 8, 5): ("8429ff8f494fb263", "af4e3960a99b14fd"),
    (1, 1, 1): ("6a5e15cad7ec3192", "91e4f6d12680b056"),
    (1, 1, 5): ("17fb04be8ddcf898", "d768f21216b99682"),
    (2, 4, 3): ("823a35bf0f0e3efe", "54db8ee6d3e91b3c"),
}


def test_golden_conv_gradients():
    got = {key: conv_gradient_digests(*key) for key in GOLDEN_CONV_GRADIENTS}
    assert got == GOLDEN_CONV_GRADIENTS


def oracle_conv_filter_grads(params, hyper, x_rows, denc_rows):
    """d(sum of denc_rows * conv encodings)/dQl of the rows x_rows, by loops:
    each layer's dz routed through tanh and the pairwise max, then the outer
    product of dz and the window vector summed position by position."""
    h, q = hyper.hidden_dim, hyper.window
    span = 2 * q + 1
    grads = {f"Q{l}": np.zeros((h, h * span))
             for l in range(1, hyper.conv_layers + 1)}
    for x, denc in zip(x_rows, denc_rows):
        cur = params["F"][:, x].T.copy()  # (m, H)
        saved = []
        for l in range(1, hyper.conv_layers + 1):
            m = len(cur)
            win = np.zeros((m, span * h))
            for i in range(m):
                for off in range(span):
                    if 0 <= i + off - q < m:
                        win[i, off * h:(off + 1) * h] = cur[i + off - q]
            z = np.array([params[f"Q{l}"] @ win[i] for i in range(m)])
            src = [[i + 1 if i + 1 < m and z[i + 1, c] > z[i, c] else i
                    for c in range(h)] for i in range(0, m, 2)]
            out = np.tanh([[z[s[c], c] for c in range(h)] for s in src])
            saved.append((win, src, out))
            cur = out
        dcur = np.zeros(cur.shape)
        for c in range(h):
            dcur[cur[:, c].argmax(), c] = denc[c]
        for l in range(hyper.conv_layers, 0, -1):
            win, src, out = saved[l - 1]
            dz = np.zeros((len(win), h))
            for k, s in enumerate(src):
                for c in range(h):
                    dz[s[c], c] += dcur[k, c] * (1.0 - out[k, c] ** 2)
            for i in range(len(win)):
                grads[f"Q{l}"] += np.outer(dz[i], win[i])
            dcur = np.zeros((len(win), h))
            for i in range(len(win)):
                dwin = params[f"Q{l}"].T @ dz[i]
                for off in range(span):
                    if 0 <= i + off - q < len(win):
                        dcur[i + off - q] += dwin[off * h:(off + 1) * h]
    return grads


def test_conv_filter_gradient_matches_oracle():
    rng = np.random.default_rng(37)
    cases = itertools.product(range(4), (1, 4), (1, 2, 3), (5, 8), (1, 3))
    for window, hidden, layers, width, n_rows in cases:
        hyper = Hyperparams(vocab_size=12, embed_dim=2, hidden_dim=hidden,
                            context_size=1, encoder="conv",
                            conv_layers=layers, window=window)
        params = init_params(hyper, 38)
        for name in params.names():
            params[name] = rng.normal(size=params[name].shape)
        x_rows = rng.integers(0, 12, size=(n_rows, width))
        denc_rows = rng.normal(size=(n_rows, hidden))
        _, cache = model._conv_rows(params, hyper, x_rows)
        params.zero_grads()
        model._conv_rows_backward(params, hyper, x_rows, cache, denc_rows,
                                  params.grad)
        want = oracle_conv_filter_grads(params, hyper, x_rows, denc_rows)
        for name, w in want.items():
            err = np.abs(params.grad(name) - w).max()
            assert err <= 1e-12 * np.abs(w).max(), (
                window, hidden, layers, width, n_rows, name)
