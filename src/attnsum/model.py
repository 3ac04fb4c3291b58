"""Conditional next-word model: a feed-forward language model over the last C
output tokens, optionally conditioned on the input sentence by one of three
encoders (bag-of-words, time-delay convolution, attention).

The distribution is computed in one place, in two stages:
  precompute(params, hyper, x_rows) -- the context-free encoder state of P
    input rows: bow/conv encodings and their share of the logits, or the
    attention encoder's input embeddings and their windowed means;
  encode(params, hyper, pre, ctx, pair_of) -- the logits of T steps, each
    with its own context and input row, and the cache for the backward pass.
forward (training, loss, cond_dist) runs both per batch. Scorer (decoding,
attention_trace, enc_attention) runs precompute once per input sentence and
encode per decode step.

Shape conventions used throughout:
  V vocab size, D embedding size, H hidden size, C context length,
  M input sentence length, P distinct input sentences in a batch,
  T prediction steps in a batch, K contexts scored in one decode step.

Parameter tensors (names as stored): E (D,V) context embedding, U (H,C*D),
b_U (H,), V (V,H), b_V (V,), and per encoder kind: W (V,H), b_W (V,),
F (H,V) input embedding, G (D,V) attention-side context embedding,
P (H,C*D) attention bilinear map, Q1..QL (H,H*(2Q+1)) conv filters.
A conv filter column index packs (window offset q, channel c) as q*H + c.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import MODEL_FORMAT_VERSION
from .corpus import START_ID, atomic_open
from .numerics import ParamStore, log_softmax_rows, softmax_rows

ENCODERS = ("none", "bow", "conv", "attention")

_MAGIC = b"ASUM"


@dataclass(frozen=True)
class Hyperparams:
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    context_size: int
    encoder: str = "attention"
    conv_layers: int = 3
    window: int = 2

    def validate(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder kind {self.encoder!r}")
        for field in ("vocab_size", "embed_dim", "hidden_dim", "context_size"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.conv_layers < 1:
            raise ValueError("conv_layers must be positive")
        if self.window < 0:
            raise ValueError("window must be nonnegative")
        return self


def param_shapes(hyper):
    """Parameter name -> shape for a model, in canonical (init) order."""
    v, d, h, c = (hyper.vocab_size, hyper.embed_dim, hyper.hidden_dim,
                  hyper.context_size)
    shapes = {"E": (d, v), "U": (h, c * d), "b_U": (h,),
              "V": (v, h), "b_V": (v,)}
    if hyper.encoder != "none":
        shapes["W"] = (v, h)
        shapes["b_W"] = (v,)
        shapes["F"] = (h, v)
    if hyper.encoder == "conv":
        span = 2 * hyper.window + 1
        for l in range(1, hyper.conv_layers + 1):
            shapes[f"Q{l}"] = (h, h * span)
    if hyper.encoder == "attention":
        shapes["G"] = (d, v)
        shapes["P"] = (h, c * d)
    return shapes


def init_params(hyper, seed):
    """Fresh ParamStore with all values uniform in [-0.05, 0.05].

    Tensors are drawn in canonical order from one PCG64 stream, so a given
    (hyper, seed) always yields bit-identical parameters.
    """
    hyper.validate()
    rng = np.random.Generator(np.random.PCG64(seed))
    params = ParamStore()
    for name, shape in param_shapes(hyper).items():
        params.register(name, rng.uniform(-0.05, 0.05, size=shape))
    return params


def _check_ids(ids, vocab_size, what="token ids"):
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        raise ValueError(f"{what} out of range [0, {vocab_size})")
    return arr


def context_windows(y, context_size, start_id=START_ID):
    """(len(y), C) context rows for predicting each token of y in turn.

    Row i holds the C tokens preceding y[i], left-padded with the start
    symbol: row 0 is all start ids.
    """
    y = np.asarray(y, dtype=np.int64)
    padded = np.concatenate([np.full(context_size, start_id, dtype=np.int64), y])
    idx = np.arange(len(y))[:, None] + np.arange(context_size)[None, :]
    return padded[idx]


@dataclass
class StepBatch:
    """All prediction steps of a group of pairs sharing one input length M.

    x (P,M) input sentences; pair_of (T,) maps each step to its row of x;
    ctx (T,C) contexts; target (T,) gold next tokens.
    """
    x: np.ndarray
    pair_of: np.ndarray
    ctx: np.ndarray
    target: np.ndarray


def make_batch(pairs, hyper):
    """Build a StepBatch from (input_ids, output_ids) pairs of equal input length."""
    if not pairs:
        raise ValueError("empty batch")
    lengths = {len(x) for x, _ in pairs}
    if len(lengths) != 1:
        raise ValueError(f"batch mixes input lengths {sorted(lengths)}")
    if lengths == {0} or any(len(y) == 0 for _, y in pairs):
        raise ValueError("empty sequence in pair")
    x_rows = _check_ids([x for x, _ in pairs], hyper.vocab_size, "input ids")
    ctx, target, pair_of = [], [], []
    for p, (_, y) in enumerate(pairs):
        y = _check_ids(y, hyper.vocab_size, "output ids")
        ctx.append(context_windows(y, hyper.context_size))
        target.append(y)
        pair_of.append(np.full(len(y), p, dtype=np.int64))
    return StepBatch(x=x_rows, pair_of=np.concatenate(pair_of),
                     ctx=np.concatenate(ctx), target=np.concatenate(target))


def _box_mean(xe, q):
    """Windowed mean over time: out[i] = sum_{|j-i|<=q} xe[j] / (2q+1).

    xe has time on axis -2 (shapes (..., M, H)); positions outside [0, M) are
    zero. The operator matrix is symmetric, so it is its own adjoint.
    """
    if q == 0:
        return xe.copy()
    pad = [(0, 0)] * xe.ndim
    pad[-2] = (q, q)
    padded = np.pad(xe, pad)
    win = sliding_window_view(padded, 2 * q + 1, axis=xe.ndim - 2)
    return win.sum(axis=-1) / (2 * q + 1)


def _bow_rows(params, x_rows):
    """Bag-of-words encodings, one per row of x_rows: (P, H)."""
    return params["F"][:, x_rows].mean(axis=2).T


def _conv_rows(params, hyper, x_rows, activation=np.tanh):
    """TDNN encodings for x_rows (P, M): (enc (P,H), cache for backward).

    Each layer: width-preserving 1-D convolution over zero-padded windows of
    half-width Q, pairwise max pool over time (odd tail kept as a singleton),
    then the activation. Finally max over remaining positions per channel.
    The activation hook exists for algebraic reduction tests; the backward
    pass assumes tanh.
    """
    q, h = hyper.window, hyper.hidden_dim
    span = 2 * q + 1
    cur = params["F"][:, x_rows].transpose(1, 0, 2)  # (P, H, M)
    layers = []
    for l in range(1, hyper.conv_layers + 1):
        n_p, _, m = cur.shape
        padded = np.pad(cur, ((0, 0), (0, 0), (q, q)))
        win = sliding_window_view(padded, span, axis=2)  # (P, H, m, span)
        winflat = win.transpose(0, 2, 3, 1).reshape(n_p, m, span * h)
        z = (winflat @ params[f"Q{l}"].T).transpose(0, 2, 1)  # (P, H, m)
        n_pair = m // 2
        pair = z[:, :, :2 * n_pair].reshape(n_p, h, n_pair, 2)
        amax = pair.argmax(axis=3)
        pooled = np.take_along_axis(pair, amax[..., None], axis=3)[..., 0]
        if m % 2:
            pooled = np.concatenate([pooled, z[:, :, -1:]], axis=2)
        out = activation(pooled)
        layers.append({"winflat": winflat, "amax": amax, "width": m, "out": out})
        cur = out
    tmax = cur.argmax(axis=2)
    enc = np.take_along_axis(cur, tmax[:, :, None], axis=2)[:, :, 0]
    return enc, {"layers": layers, "tmax": tmax}


def _conv_rows_backward(params, hyper, x_rows, cache, denc_rows, grad):
    q, h = hyper.window, hyper.hidden_dim
    span = 2 * q + 1
    layers = cache["layers"]
    dcur = np.zeros_like(layers[-1]["out"])
    np.put_along_axis(dcur, cache["tmax"][:, :, None],
                      denc_rows[:, :, None], axis=2)
    for l in range(hyper.conv_layers, 0, -1):
        layer = layers[l - 1]
        out, m = layer["out"], layer["width"]
        n_p = out.shape[0]
        dpooled = dcur * (1.0 - out * out)
        n_pair = m // 2
        dz = np.zeros((n_p, h, m))
        if n_pair:
            dpair = np.zeros((n_p, h, n_pair, 2))
            np.put_along_axis(dpair, layer["amax"][..., None],
                              dpooled[:, :, :n_pair, None], axis=3)
            dz[:, :, :2 * n_pair] = dpair.reshape(n_p, h, 2 * n_pair)
        if m % 2:
            dz[:, :, -1] = dpooled[:, :, -1]
        dzt = dz.transpose(0, 2, 1)  # (P, m, H)
        grad(f"Q{l}")[...] += np.einsum("pmh,pmk->hk", dzt, layer["winflat"])
        dwin = (dzt @ params[f"Q{l}"]).reshape(n_p, m, span, h)
        dpadded = np.zeros((n_p, h, m + 2 * q))
        for off in range(span):
            dpadded[:, :, off:off + m] += dwin[:, :, off, :].transpose(0, 2, 1)
        dcur = dpadded[:, :, q:q + m]
    np.add.at(grad("F"), (slice(None), x_rows), dcur.transpose(1, 0, 2))


def _context_embed(table, ctx):
    """Stack embedding columns of a (T,C) context block into (T, C*D) rows."""
    t, c = ctx.shape
    return table[:, ctx].transpose(1, 2, 0).reshape(t, c * table.shape[0])


def _runs(pair_of):
    """[row, lo, hi] for each maximal run of equal entries of pair_of.

    A plain loop: a decode step has a single short run, where numpy's
    per-call overhead would cost more than the loop.
    """
    runs = []
    for t, p in enumerate(pair_of.tolist()):
        if runs and runs[-1][0] == p:
            runs[-1][2] = t + 1
        else:
            runs.append([p, t, t + 1])
    return runs


def precompute(params, hyper, x_rows):
    """The context-free encoder state of the input rows x_rows (P, M).

    bow/conv: `rows` (P,H) encodings, the conv layers' cache `conv`, and
    `enc_logit` (P,V) = rows W^T + b_W, the encoder's whole share of the
    logits. attention: `xe` (P,M,H), the input embeddings, and `xbar`, their
    windowed mean. Every kind keeps `x`, the rows themselves.
    """
    pre = {"x": x_rows}
    if hyper.encoder == "attention":
        xe = params["F"][:, x_rows].transpose(1, 2, 0)
        pre.update(xe=xe, xbar=_box_mean(xe, hyper.window))
    elif hyper.encoder != "none":
        if hyper.encoder == "bow":
            rows, conv = _bow_rows(params, x_rows), None
        else:
            rows, conv = _conv_rows(params, hyper, x_rows)
        pre.update(rows=rows, conv=conv,
                   enc_logit=rows @ params["W"].T + params["b_W"])
    return pre


def encode(params, hyper, pre, ctx, pair_of):
    """Logits (T,V) of the steps with contexts ctx (T,C), where step t reads
    input row pair_of[t] of `pre`; returns (logits, cache for backward).

    For the attention encoder the cache holds each step's attention row
    `attn` (T,M) and encoding `encvec` (T,H).
    """
    ytilde = _context_embed(params["E"], ctx)
    h = np.tanh(ytilde @ params["U"].T + params["b_U"])
    logits = h @ params["V"].T + params["b_V"]
    runs = _runs(pair_of)
    cache = {"pre": pre, "ctx": ctx, "runs": runs, "ytilde": ytilde, "h": h}
    if hyper.encoder == "attention":
        ctx_g = _context_embed(params["G"], ctx)
        query = ctx_g @ params["P"].T  # (T, H)
        attn = np.empty((len(ctx), pre["xe"].shape[1]))
        encvec = np.empty_like(query)
        for p, lo, hi in runs:
            attn[lo:hi] = softmax_rows(query[lo:hi] @ pre["xe"][p].T)
            encvec[lo:hi] = attn[lo:hi] @ pre["xbar"][p]
        logits = logits + encvec @ params["W"].T + params["b_W"]
        cache.update(ctx_g=ctx_g, query=query, attn=attn, encvec=encvec)
    elif hyper.encoder != "none":
        for p, lo, hi in runs:
            logits[lo:hi] += pre["enc_logit"][p]
    return logits, cache


def forward(params, hyper, batch):
    """Full forward pass; returns a cache holding the per-step log-probs."""
    logits, cache = encode(params, hyper, precompute(params, hyper, batch.x),
                           batch.ctx, batch.pair_of)
    cache["logp"] = log_softmax_rows(logits)
    return cache


def loss(params, hyper, batch):
    """Summed negative log-likelihood of the batch targets."""
    cache = forward(params, hyper, batch)
    steps = np.arange(len(batch.target))
    return float(-cache["logp"][steps, batch.target].sum())


def backward(params, hyper, batch):
    """Accumulate d(summed NLL)/dtheta into params' gradients; returns the NLL."""
    cache = forward(params, hyper, batch)
    t = len(batch.target)
    steps = np.arange(t)
    nll = float(-cache["logp"][steps, batch.target].sum())
    grad = params.grad

    dlogits = np.exp(cache["logp"])  # softmax probabilities
    dlogits[steps, batch.target] -= 1.0
    h = cache["h"]
    dbias = dlogits.sum(axis=0)
    grad("V")[...] += dlogits.T @ h
    grad("b_V")[...] += dbias
    dh = dlogits @ params["V"]
    if hyper.encoder != "none":
        grad("b_W")[...] += dbias
        if hyper.encoder == "attention":
            grad("W")[...] += dlogits.T @ cache["encvec"]
            _attention_backward(params, hyper, cache, dlogits @ params["W"])
        else:
            _rows_backward(params, hyper, cache, dlogits)

    dpre = dh * (1.0 - h * h)
    grad("U")[...] += dpre.T @ cache["ytilde"]
    grad("b_U")[...] += dpre.sum(axis=0)
    dytilde = dpre @ params["U"]
    d = hyper.embed_dim
    dctx = dytilde.reshape(t, hyper.context_size, d).transpose(2, 0, 1)
    np.add.at(grad("E"), (slice(None), batch.ctx), dctx)
    return nll


def _rows_backward(params, hyper, cache, dlogits):
    """bow/conv: every step of a row adds that row's enc_logit, so its
    gradient is the sum of the row's dlogits, routed through W once."""
    grad = params.grad
    pre = cache["pre"]
    denc_logit = np.zeros_like(pre["enc_logit"])
    for p, lo, hi in cache["runs"]:
        denc_logit[p] += dlogits[lo:hi].sum(axis=0)
    grad("W")[...] += denc_logit.T @ pre["rows"]
    drows = denc_logit @ params["W"]
    if hyper.encoder == "bow":
        m = pre["x"].shape[1]
        np.add.at(grad("F"), (slice(None), pre["x"]),
                  (drows.T / m)[:, :, None])
    else:
        _conv_rows_backward(params, hyper, pre["x"], pre["conv"], drows, grad)


def _attention_backward(params, hyper, cache, denc):
    """Route d(loss)/d(encvec) = denc (T,H) into P, G and F, one run of
    steps sharing an input row at a time."""
    grad = params.grad
    pre, attn, query = cache["pre"], cache["attn"], cache["query"]
    xe, xbar = pre["xe"], pre["xbar"]
    dquery = np.empty_like(query)
    dxe, dxbar = np.zeros(xe.shape), np.zeros(xbar.shape)
    for p, lo, hi in cache["runs"]:
        a, d = attn[lo:hi], denc[lo:hi]
        da = d @ xbar[p].T
        # softmax backward over input positions
        dscores = a * (da - (a * da).sum(axis=1, keepdims=True))
        dquery[lo:hi] = dscores @ xe[p]
        dxe[p] += dscores.T @ query[lo:hi]
        dxbar[p] += a.T @ d
    grad("P")[...] += dquery.T @ cache["ctx_g"]
    dctx_g = dquery @ params["P"]
    ctx = cache["ctx"]
    t, d = ctx.shape[0], hyper.embed_dim
    np.add.at(grad("G"), (slice(None), ctx),
              dctx_g.reshape(t, hyper.context_size, d).transpose(2, 0, 1))
    dxe += _box_mean(dxbar, hyper.window)  # box mean is self-adjoint
    np.add.at(grad("F"), (slice(None), pre["x"]), dxe.transpose(2, 0, 1))


def cond_dist(params, hyper, x, y_c):
    """p(next token | input x, context y_c): a proper distribution over V."""
    x = _check_ids(x, hyper.vocab_size, "input ids")
    y_c = _check_ids(y_c, hyper.vocab_size, "context ids")
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a nonempty id sequence")
    if y_c.shape != (hyper.context_size,):
        raise ValueError(f"context must hold exactly {hyper.context_size} ids")
    batch = StepBatch(x=x[None, :], pair_of=np.zeros(1, dtype=np.int64),
                      ctx=y_c[None, :], target=np.zeros(1, dtype=np.int64))
    return np.exp(forward(params, hyper, batch)["logp"][0])


def enc_bow(params, x):
    """Order-independent input encoding: the mean of the columns F[:, x_i]."""
    x = _check_ids(x, params["F"].shape[1], "input ids")
    if x.size == 0:
        raise ValueError("empty input")
    return _bow_rows(params, x[None, :])[0]


def enc_conv(params, hyper, x, activation=np.tanh):
    """TDNN input encoding; see _conv_rows for the layer recipe."""
    x = _check_ids(x, hyper.vocab_size, "input ids")
    if x.size == 0:
        raise ValueError("empty input")
    return _conv_rows(params, hyper, x[None, :], activation)[0][0]


def enc_attention(params, hyper, x, y_c):
    """Context-dependent encoding (p^T xbar, p): p is softmax over positions
    of the bilinear scores xe_i . (P ytilde'_c); xbar is the windowed mean of xe."""
    cache = Scorer(params, hyper, x)._encode([y_c])[1]
    return cache["encvec"][0], cache["attn"][0]


class Scorer:
    """Next-token log-probabilities for one input sentence.

    precompute runs once, in the constructor, so a decode step only runs
    encode on its K candidate contexts: one mini-batch of matrix products.
    """

    def __init__(self, params, hyper, x):
        hyper.validate()
        self.params = params
        self.hyper = hyper
        self.x = _check_ids(x, hyper.vocab_size, "input ids")
        if self.x.ndim != 1 or self.x.size == 0:
            raise ValueError("input must be a nonempty id sequence")
        self._pre = precompute(params, hyper, self.x[None, :])

    @property
    def vocab_size(self):
        return self.hyper.vocab_size

    @property
    def context_size(self):
        return self.hyper.context_size

    def _encode(self, contexts):
        """encode() of contexts (K, C) against this sentence."""
        contexts = _check_ids(contexts, self.hyper.vocab_size, "context ids")
        if contexts.ndim != 2 or contexts.shape[1] != self.hyper.context_size:
            raise ValueError("contexts must have shape (K, C)")
        return encode(self.params, self.hyper, self._pre, contexts,
                      np.zeros(len(contexts), dtype=np.int64))

    def step_scores(self, contexts):
        """Log p(next | context, x) for contexts (K, C): shape (K, V)."""
        return log_softmax_rows(self._encode(contexts)[0])

    def attention(self, contexts):
        """Attention rows p (K, M) for contexts (K, C); attention encoder only."""
        if self.hyper.encoder != "attention":
            raise ValueError("attention weights require the attention encoder")
        return self._encode(contexts)[1]["attn"]


def attention_trace(params, hyper, x, y):
    """Replay the attention distributions used while producing y: (N, M) rows."""
    scorer = Scorer(params, hyper, x)
    return scorer.attention(context_windows(np.asarray(y, dtype=np.int64),
                                            hyper.context_size))


def _write_u32(fh, *values):
    fh.write(struct.pack(f"<{len(values)}I", *values))


def _remaining(fh):
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n):
    """n bytes of fh; checked against the file's size first, so a corrupt
    length field cannot ask for more memory than the file holds."""
    if n > _remaining(fh):
        raise ValueError("truncated model file")
    return fh.read(n)


def _read_u32(fh, count=1):
    vals = struct.unpack(f"<{count}I", _read_exact(fh, 4 * count))
    return vals[0] if count == 1 else vals


def save_model(path, params, hyper):
    """Versioned little-endian binary: magic, version, hyperparams, then
    name-sorted tensors as (name, shape, row-major float64 payload). The
    file is written atomically: a failed save leaves any earlier file."""
    names = sorted(params.names())
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        _write_u32(fh, MODEL_FORMAT_VERSION)
        enc = hyper.encoder.encode("utf-8")
        _write_u32(fh, len(enc))
        fh.write(enc)
        _write_u32(fh, hyper.vocab_size, hyper.embed_dim, hyper.hidden_dim,
                   hyper.context_size, hyper.conv_layers, hyper.window)
        _write_u32(fh, len(names))
        for name in names:
            raw = name.encode("utf-8")
            _write_u32(fh, len(raw))
            fh.write(raw)
            arr = params[name]
            _write_u32(fh, arr.ndim, *arr.shape)
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh):
    if _read_exact(fh, 4) != _MAGIC:
        raise ValueError("not a model file (bad magic)")
    version = _read_u32(fh)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    enc = _read_exact(fh, _read_u32(fh)).decode("utf-8")
    v, d, h, c, layers, window = _read_u32(fh, 6)
    hyper = Hyperparams(vocab_size=v, embed_dim=d, hidden_dim=h,
                        context_size=c, encoder=enc, conv_layers=layers,
                        window=window)
    return version, hyper.validate()


def _read_model(path, payloads):
    """(format version, hyperparams, tensors) of a model file.

    Every record is checked against the header: the file must hold each
    tensor its hyperparams imply, once, with the implied shape, and end
    right after the last payload. tensors maps each name to its array, or
    to its shape when payloads is false; the payloads are then skipped.
    """
    with open(path, "rb") as fh:
        version, hyper = _read_header(fh)
        expected = param_shapes(hyper)
        if _read_u32(fh) != len(expected):
            raise ValueError("model file tensors do not match its hyperparams")
        tensors = {}
        for _ in range(len(expected)):
            name = _read_exact(fh, _read_u32(fh)).decode("utf-8")
            if name not in expected or name in tensors:
                raise ValueError("model file tensors do not match its "
                                 "hyperparams")
            ndim = _read_u32(fh)
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            if shape != expected[name]:
                raise ValueError(f"tensor {name} has shape {shape}, "
                                 f"expected {expected[name]}")
            nbytes = 8 * math.prod(shape)
            if nbytes > _remaining(fh):
                raise ValueError("truncated model file")
            if payloads:
                # read straight into the array that becomes the parameter
                tensors[name] = np.empty(shape, dtype="<f8")
                if fh.readinto(tensors[name]) != nbytes:
                    raise ValueError("truncated model file")
            else:
                fh.seek(nbytes, 1)
                tensors[name] = shape
        if _remaining(fh):
            raise ValueError("trailing bytes after the last tensor")
    return version, hyper, tensors


def load_model(path):
    """Read a saved model back: (ParamStore, Hyperparams)."""
    _, hyper, tensors = _read_model(path, payloads=True)
    params = ParamStore()
    for name in param_shapes(hyper):
        params.register(name, tensors[name])
    return params, hyper


def read_model_header(path):
    """Header summary without loading payloads: hyperparams plus tensor shapes."""
    version, hyper, shapes = _read_model(path, payloads=False)
    return {"format_version": version, "hyperparams": hyper, "tensors": shapes}
