"""Conditional next-word model: a feed-forward language model over the last C
output tokens, optionally conditioned on the input sentence by one of three
encoders (bag-of-words, time-delay convolution, attention).

The distribution is computed in one place, in two stages:
  precompute(params, hyper, x_rows) -- the context-free encoder state of P
    input rows: bow/conv encodings and their share of the logits, or the
    attention encoder's input embeddings and their windowed means;
  encode(params, hyper, pre, ctx, lengths) -- the logits of T steps, each
    with its own context, lengths[p] of them reading input row p, and the
    cache for the backward pass.
forward (training, loss, cond_dist) runs both per batch. Scorer (decoding,
attention_trace, enc_attention) runs precompute once per input sentence and
encode per decode step.

Batches come from step tables. step_table(pairs, hyper) builds a corpus's
StepTable once: every step's (C,) context and target, pair after pair, and
the input sentences, with one id check over the whole corpus. A StepBatch
(one input length; x, lengths, ctx, target) is a gather of index ranges from
it, StepTable.batch. make_batch(pairs, hyper) is the one-off form: a table
of just those pairs, gathered whole.

Steps come row after row: lengths (P,) holds each input row's step count.
When there are several rows with the same count, as in a batch of
equal-length outputs, encode and its backward pass run each product once,
stacked over rows: the attention products, and the bow/conv rows' share of
the logits and its gradient; otherwise (ragged rows, or the one row of a
decode step) they run 2-D products one row at a time. The stacked products
agree with the per-row ones bit for bit.

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

import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import MODEL_FORMAT_VERSION
from .corpus import START_ID, atomic_open
from .numerics import ParamStore, log_softmax_rows, softmax_rows

ENCODERS = ("none", "bow", "conv", "attention")

_MAGIC = b"ASUM"

# the fewest bytes a tensor record of a valid model file can take: name
# length, a 1-byte name, ndim, one dimension and one float64
_MIN_RECORD = 4 + 1 + 4 + 4 + 8

# the most logits (steps x vocabulary) that loss evaluates in one forward
# pass: 32 MB of float64 per (T,V) array
LOGIT_BUDGET = 1 << 22


@dataclass(frozen=True)
class Hyperparams:
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    context_size: int
    encoder: str = "attention"
    conv_layers: int = 3
    window: int = 2

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder kind {self.encoder!r}")
        for field in ("vocab_size", "embed_dim", "hidden_dim", "context_size",
                      "conv_layers"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.window < 0:
            raise ValueError("window must be nonnegative")


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


def _tensor_count(hyper):
    """len(param_shapes(hyper)), computed without building the dict."""
    return (5 + 3 * (hyper.encoder != "none")
            + hyper.conv_layers * (hyper.encoder == "conv")
            + 2 * (hyper.encoder == "attention"))


def init_params(hyper, seed):
    """Fresh ParamStore with all values uniform in [-0.05, 0.05].

    Tensors are drawn in canonical order from one PCG64 stream, so a given
    (hyper, seed) always yields bit-identical parameters.
    """
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


def _input_ids(x, vocab_size):
    """x as a nonempty 1-D int64 array of ids in [0, vocab_size); raises
    ValueError otherwise."""
    arr = np.asarray(x, dtype=np.int64)
    if (arr.ndim != 1 or arr.size == 0 or arr.min() < 0
            or arr.max() >= vocab_size):
        raise ValueError("input must be a nonempty id sequence, no id out "
                         f"of range [0, {vocab_size})")
    return arr


def context_windows(y, context_size):
    """(len(y), C) context rows for predicting each token of y in turn.

    Row i holds the C tokens preceding y[i], left-padded with the start
    symbol: row 0 is all start ids.
    """
    y = np.asarray(y, dtype=np.int64)
    padded = np.concatenate([np.full(context_size, START_ID, dtype=np.int64),
                             y])
    idx = np.arange(len(y))[:, None] + np.arange(context_size)[None, :]
    return padded[idx]


@dataclass
class StepBatch:
    """All prediction steps of a group of pairs sharing one input length M.

    x (P,M) input sentences; lengths (P,) the number of steps of each row;
    ctx (T,C) contexts and target (T,) gold next tokens, row after row:
    row p's lengths[p] steps follow row p-1's.
    """
    x: np.ndarray
    lengths: np.ndarray
    ctx: np.ndarray
    target: np.ndarray


@dataclass
class StepTable:
    """Every prediction step of a corpus of (input, output) pairs, built once.

    ctx (T_total, C) and target (T_total,) hold the steps pair after pair:
    pair i's steps are rows offset[i]:offset[i] + length[i]. inputs holds the
    input sentences end to end, pair i's at in_offset[i], in_length[i] long.
    """
    ctx: np.ndarray
    target: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    inputs: np.ndarray
    in_offset: np.ndarray
    in_length: np.ndarray

    def batch(self, indices):
        """StepBatch of the pairs at `indices`, which share one input length:
        a gather of their step rows and input rows, in the order given."""
        idx = np.asarray(indices, dtype=np.int64)
        lens = self.length[idx]
        m = self.in_length[idx[0]]
        x = self.inputs[self.in_offset[idx][:, None] + np.arange(m)]
        first = np.cumsum(lens) - lens  # each pair's first row in the batch
        steps = (np.repeat(self.offset[idx] - first, lens)
                 + np.arange(first[-1] + lens[-1]))
        return StepBatch(x=x, lengths=lens, ctx=self.ctx[steps],
                         target=self.target[steps])


def _lengths(seqs):
    return np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))


def _concat_ids(seqs, total):
    return np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64,
                       count=total)


def step_table(pairs, hyper):
    """The StepTable of (input_ids, output_ids) pairs, vectorised over the
    whole corpus. Raises ValueError on an empty input or output and on ids
    outside the vocabulary, before any step is built."""
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    in_length, length = _lengths(xs), _lengths(ys)
    if not (in_length.all() and length.all()):
        raise ValueError("empty sequence in pair")
    inputs = _check_ids(_concat_ids(xs, in_length.sum()), hyper.vocab_size,
                        "input ids")
    target = _check_ids(_concat_ids(ys, length.sum()), hyper.vocab_size,
                        "output ids")
    offset = np.cumsum(length) - length
    steps = np.arange(len(target))
    position = steps - np.repeat(offset, length)  # index within the output
    c = hyper.context_size
    ctx = np.empty((len(target), c), dtype=np.int64)
    for col in range(c):
        back = c - col  # slot col holds the token `back` steps earlier
        ctx[:, col] = np.where(position >= back,
                               target[np.maximum(steps - back, 0)], START_ID)
    return StepTable(ctx=ctx, target=target, offset=offset, length=length,
                     inputs=inputs, in_offset=np.cumsum(in_length) - in_length,
                     in_length=in_length)


def make_batch(pairs, hyper):
    """Build a StepBatch from (input_ids, output_ids) pairs of equal input length."""
    if not pairs:
        raise ValueError("empty batch")
    lengths = {len(x) for x, _ in pairs}
    if len(lengths) != 1:
        raise ValueError(f"batch mixes input lengths {sorted(lengths)}")
    return step_table(pairs, hyper).batch(np.arange(len(pairs)))


def _box_mean(xe, q):
    """Windowed mean over time: out[i] = sum_{|j-i|<=q} xe[j] / (2q+1).

    xe has time on axis -2 (shapes (..., M, H)); positions outside [0, M) are
    zero. The operator matrix is symmetric, so it is its own adjoint.

    The window's terms are added in order into an output that starts at
    +0.0, as numpy's window sum does. A sum that starts at +0.0 never becomes
    -0.0, so the zero terms past either end can be skipped without changing a
    bit; starting from the first term instead would keep a lone -0.0.
    """
    if q == 0:
        return xe.copy()
    m = xe.shape[-2]
    out = np.zeros(xe.shape)
    for shift in range(max(-q, 1 - m), min(q, m - 1) + 1):
        lo, hi = max(0, -shift), min(m, m - shift)
        out[..., lo:hi, :] += xe[..., lo + shift:hi + shift, :]
    return out / (2 * q + 1)


def _scatter_columns(grad, ids, vals):
    """grad[:, ids] += vals, for vals of shape (D, *ids.shape), adding the
    values of a repeated id in index order.

    One bincount over the distinct ids that occur: each column's sum starts
    at +0.0 and adds its values in the order np.add.at would, so into a
    zeroed gradient the result is np.add.at's, bit for bit.
    """
    cols, inverse = np.unique(ids, return_inverse=True)
    d, u = grad.shape[0], len(cols)
    slots = (np.arange(d)[:, None] * u + inverse.reshape(1, -1)).reshape(-1)
    weights = np.broadcast_to(vals, (d,) + ids.shape).reshape(-1)
    grad[:, cols] += np.bincount(slots, weights=weights,
                                 minlength=d * u).reshape(d, u)


def _bow_rows(params, x_rows):
    """Bag-of-words encodings, one per row of x_rows: (P, H)."""
    return params["F"][:, x_rows].mean(axis=2).T


def _pool_pairs(z):
    """Max over each pair of time steps (0,1), (2,3), ... of z (P, m, H), and
    the mask of the pairs whose max is the odd step. As argmax, a pool keeps
    the even step on a tie (also -0.0 against +0.0) and the first NaN."""
    n_pair = z.shape[1] // 2
    even, odd = z[:, 0:2 * n_pair:2], z[:, 1:2 * n_pair:2]
    amax = (odd > even) | (np.isnan(odd) & ~np.isnan(even))
    return np.where(amax, odd, even), amax


def _conv_rows(params, hyper, x_rows):
    """TDNN encodings for x_rows (P, M): (enc (P,H), cache for backward).

    Each layer: width-preserving 1-D convolution over zero-padded windows of
    half-width Q, pairwise max pool over time (odd tail kept as a singleton),
    then tanh. Finally max over remaining positions per channel. Layers run
    time-major, (P, m, H).
    """
    q, h = hyper.window, hyper.hidden_dim
    cur = params["F"][:, x_rows].transpose(1, 2, 0)  # (P, M, H)
    layers = []
    for l in range(1, hyper.conv_layers + 1):
        n_p, m, _ = cur.shape
        # winflat[p, i, off*H + c] = cur[p, i + off - q, c], zero off the ends
        winflat = np.zeros((n_p, m, (2 * q + 1) * h))
        for off in range(max(0, q - m + 1), min(2 * q, q + m - 1) + 1):
            lo, hi = max(0, q - off), min(m, m + q - off)
            winflat[:, lo:hi, off * h:(off + 1) * h] = \
                cur[:, lo + off - q:hi + off - q]
        z = winflat @ params[f"Q{l}"].T  # (P, m, H)
        pooled, amax = _pool_pairs(z)
        if m % 2:
            pooled = np.concatenate([pooled, z[:, -1:]], axis=1)
        out = np.tanh(pooled)
        layers.append({"winflat": winflat, "amax": amax, "width": m, "out": out})
        cur = out
    tmax = cur.argmax(axis=1)  # (P, H)
    rows, chans = np.arange(len(cur))[:, None], np.arange(h)
    return cur[rows, tmax, chans], {"layers": layers, "tmax": tmax}


def _conv_rows_backward(params, hyper, x_rows, cache, denc_rows, grad):
    q, h = hyper.window, hyper.hidden_dim
    span = 2 * q + 1
    layers = cache["layers"]
    dcur = np.zeros_like(layers[-1]["out"])  # (P, m, H)
    rows, chans = np.arange(len(dcur))[:, None], np.arange(h)
    dcur[rows, cache["tmax"], chans] = denc_rows
    for l in range(hyper.conv_layers, 0, -1):
        layer = layers[l - 1]
        out, m = layer["out"], layer["width"]
        n_p = out.shape[0]
        dpooled = dcur * (1.0 - out * out)
        n_pair = m // 2
        # dz is stored (P, H, m): the dwin product reads this layout, and
        # time-major storage changes its bits
        dzt = np.zeros((n_p, h, m)).transpose(0, 2, 1)  # (P, m, H)
        if n_pair:
            amax, dpair = layer["amax"], dpooled[:, :n_pair]
            dzt[:, 0:2 * n_pair:2] = np.where(amax, 0.0, dpair)
            dzt[:, 1:2 * n_pair:2] = np.where(amax, dpair, 0.0)
        if m % 2:
            dzt[:, -1] = dpooled[:, -1]
        # one gemm sums dz's outer products with the window vectors over
        # all P*m positions
        grad(f"Q{l}")[...] += (dzt.reshape(n_p * m, h).T
                               @ layer["winflat"].reshape(n_p * m, -1))
        dwin = (dzt @ params[f"Q{l}"]).reshape(n_p, m, span, h)
        dcur = np.zeros((n_p, m, h))
        for off in range(max(0, q - m + 1), min(2 * q, q + m - 1) + 1):
            lo, hi = max(0, q - off), min(m, m + q - off)
            dcur[:, lo + off - q:hi + off - q] += dwin[:, lo:hi, off]
    _scatter_columns(grad("F"), x_rows, dcur.transpose(2, 0, 1))


def _context_embed(table, ctx):
    """Stack embedding columns of a (T,C) context block into (T, C*D) rows."""
    t, c = ctx.shape
    return table[:, ctx].transpose(1, 2, 0).reshape(t, c * table.shape[0])


def _run_blocks(lengths, *steps):
    """The steps in blocks, each one set of products: returns (blocks,
    views), where each block (rows, cut) reads input rows `rows` and the
    steps view[cut] of each of the (T, .) arrays `steps`.

    lengths is the list of each input row's step count, the steps coming
    row after row. When there is more than one row and all have the same
    count n (a batch of equal-length outputs), there is one block of all
    rows and the views are the steps stacked (P, n, .): reshapes, so writes
    into them land in the C-contiguous arrays given. Otherwise each row is
    a block, a row index and a slice of steps, with 2-D products, as in a
    decode step. The stacked products give the per-row products' bits.
    Plain Python: a decode step has one row, where numpy's per-call
    overhead would cost more than the work.
    """
    if len(lengths) > 1 and lengths.count(lengths[0]) == len(lengths):
        return ([(slice(None), slice(None))],
                [a.reshape(len(lengths), lengths[0], -1) for a in steps])
    ends = itertools.accumulate(lengths)
    return [(p, slice(hi - n, hi))
            for p, (n, hi) in enumerate(zip(lengths, ends))], steps


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


def encode(params, hyper, pre, ctx, lengths):
    """Logits (T,V) of the steps with contexts ctx (T,C), where the list
    lengths (P,) counts the steps of each input row of `pre`, row after row;
    returns (logits, cache for backward).

    For the attention encoder the cache holds each step's attention row
    `attn` (T,M) and encoding `encvec` (T,H).
    """
    ytilde = _context_embed(params["E"], ctx)
    h = np.tanh(ytilde @ params["U"].T + params["b_U"])
    logits = h @ params["V"].T
    logits += params["b_V"]
    cache = {"pre": pre, "ctx": ctx, "lengths": lengths, "ytilde": ytilde,
             "h": h}
    if hyper.encoder == "attention":
        ctx_g = _context_embed(params["G"], ctx)
        query = ctx_g @ params["P"].T  # (T, H)
        xe, xbar = pre["xe"], pre["xbar"]
        attn = np.empty((len(ctx), xe.shape[1]))
        encvec = np.empty_like(query)
        blocks, (q, a, e) = _run_blocks(lengths, query, attn, encvec)
        for rows, cut in blocks:
            a[cut] = softmax_rows(q[cut] @ xe[rows].swapaxes(-1, -2))
            e[cut] = a[cut] @ xbar[rows]
        logits += encvec @ params["W"].T
        logits += params["b_W"]
        cache.update(ctx_g=ctx_g, query=query, attn=attn, encvec=encvec)
    elif hyper.encoder != "none":
        blocks, (lg,) = _run_blocks(lengths, logits)
        for rows, cut in blocks:
            lg[cut] += pre["enc_logit"][rows, None]
    return logits, cache


def forward(params, hyper, batch):
    """Full forward pass; returns a cache holding the per-step log-probs."""
    logits, cache = encode(params, hyper, precompute(params, hyper, batch.x),
                           batch.ctx, batch.lengths.tolist())
    cache["logp"] = log_softmax_rows(logits)
    return cache


def _step_slice(batch, lo, hi):
    """The StepBatch of steps lo:hi of batch, holding only the input rows
    those steps read: each row's steps clipped to lo:hi, and the rows with
    steps left."""
    ends = np.cumsum(batch.lengths)
    lengths = np.minimum(ends, hi) - np.maximum(ends - batch.lengths, lo)
    keep = lengths > 0
    return StepBatch(x=batch.x[keep], lengths=lengths[keep],
                     ctx=batch.ctx[lo:hi], target=batch.target[lo:hi])


def loss(params, hyper, batch):
    """Summed negative log-likelihood of the batch targets.

    The steps run in chunks of at most LOGIT_BUDGET logits, which bounds
    the (T,V) arrays a forward pass holds; the chunks' target log-probs are
    collected and summed once. A batch within the budget is one chunk.
    """
    t = len(batch.target)
    rows = max(1, LOGIT_BUDGET // hyper.vocab_size)
    picks = []
    for lo in range(0, t, rows):
        part = _step_slice(batch, lo, lo + rows)
        logp = forward(params, hyper, part)["logp"]
        picks.append(logp[np.arange(len(part.target)), part.target])
        del logp  # freed before the next chunk's forward pass
    return float(-np.concatenate(picks).sum())


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
    _scatter_columns(grad("E"), batch.ctx, dctx)
    return nll


def _rows_backward(params, hyper, cache, dlogits):
    """bow/conv: every step of a row adds that row's enc_logit, so its
    gradient is the sum of the row's dlogits, routed through W once."""
    grad = params.grad
    pre = cache["pre"]
    denc_logit = np.zeros_like(pre["enc_logit"])
    blocks, (dl,) = _run_blocks(cache["lengths"], dlogits)
    for rows, cut in blocks:
        denc_logit[rows] += dl[cut].sum(axis=-2)
    grad("W")[...] += denc_logit.T @ pre["rows"]
    drows = denc_logit @ params["W"]
    if hyper.encoder == "bow":
        m = pre["x"].shape[1]
        _scatter_columns(grad("F"), pre["x"], (drows.T / m)[:, :, None])
    else:
        _conv_rows_backward(params, hyper, pre["x"], pre["conv"], drows, grad)


def _attention_backward(params, hyper, cache, denc):
    """Route d(loss)/d(encvec) = denc (T,H) into P, G and F, one block of
    rows at a time (see _run_blocks)."""
    grad = params.grad
    pre, attn, query = cache["pre"], cache["attn"], cache["query"]
    xe, xbar = pre["xe"], pre["xbar"]
    dquery = np.empty_like(query)
    dxe, dxbar = np.zeros(xe.shape), np.zeros(xbar.shape)
    blocks, (a_all, d_all, q_all, dq_all) = _run_blocks(
        cache["lengths"], attn, denc, query, dquery)
    for rows, cut in blocks:
        a, d, q = a_all[cut], d_all[cut], q_all[cut]
        da = d @ xbar[rows].swapaxes(-1, -2)
        # softmax backward over input positions
        dscores = a * (da - (a * da).sum(axis=-1, keepdims=True))
        dq_all[cut] = dscores @ xe[rows]
        dxe[rows] += dscores.swapaxes(-1, -2) @ q
        dxbar[rows] += a.swapaxes(-1, -2) @ d
    grad("P")[...] += dquery.T @ cache["ctx_g"]
    dctx_g = dquery @ params["P"]
    ctx = cache["ctx"]
    t, d = ctx.shape[0], hyper.embed_dim
    dctx_g = dctx_g.reshape(t, hyper.context_size, d).transpose(2, 0, 1)
    _scatter_columns(grad("G"), ctx, dctx_g)
    dxe += _box_mean(dxbar, hyper.window)  # box mean is self-adjoint
    _scatter_columns(grad("F"), pre["x"], dxe.transpose(2, 0, 1))


def cond_dist(params, hyper, x, y_c):
    """p(next token | input x, context y_c): a proper distribution over V."""
    x = _input_ids(x, hyper.vocab_size)
    y_c = _check_ids(y_c, hyper.vocab_size, "context ids")
    if y_c.shape != (hyper.context_size,):
        raise ValueError(f"context must hold exactly {hyper.context_size} ids")
    batch = StepBatch(x=x[None, :], lengths=np.ones(1, dtype=np.int64),
                      ctx=y_c[None, :], target=np.zeros(1, dtype=np.int64))
    return np.exp(forward(params, hyper, batch)["logp"][0])


def enc_bow(params, x):
    """Order-independent input encoding: the mean of the columns F[:, x_i]."""
    x = _input_ids(x, params["F"].shape[1])
    return _bow_rows(params, x[None, :])[0]


def enc_conv(params, hyper, x):
    """TDNN input encoding; see _conv_rows for the layer recipe."""
    x = _input_ids(x, hyper.vocab_size)
    return _conv_rows(params, hyper, x[None, :])[0][0]


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
        self.params = params
        self.hyper = hyper
        self.x = _input_ids(x, hyper.vocab_size)
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
                      [len(contexts)])

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
    return version, Hyperparams(vocab_size=v, embed_dim=d, hidden_dim=h,
                                context_size=c, encoder=enc,
                                conv_layers=layers, window=window)


def _read_model(path, payloads):
    """(format version, hyperparams, tensors) of a model file, checked against
    its header: it holds each tensor the hyperparams imply, once, with the
    implied shape, and ends with the last payload. tensors is a ParamStore of
    the finite payloads, or maps each name to its shape when payloads is false.
    A refusal reads '<path>: <reason>'."""
    try:
        with open(path, "rb") as fh:
            version, hyper = _read_header(fh)
            # the tensor count is checked before param_shapes builds one entry
            # per conv layer, a raw u32 of the header
            count = _read_u32(fh)
            if count != _tensor_count(hyper):
                raise ValueError("model file tensors do not match its "
                                 "hyperparams")
            if count * _MIN_RECORD > _remaining(fh):
                raise ValueError("truncated model file")
            expected = param_shapes(hyper)
            shapes, offsets = {}, {}
            for _ in range(len(expected)):
                name = _read_exact(fh, _read_u32(fh)).decode("utf-8")
                if name not in expected or name in shapes:
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
                shapes[name], offsets[name] = shape, fh.tell()
                fh.seek(nbytes, 1)
            if _remaining(fh):
                raise ValueError("trailing bytes after the last tensor")
            if not payloads:
                return version, hyper, shapes
            # the payloads, checked to fit the file, are read in place into
            # views of one buffer: one large allocation per load instead of one
            # per tensor, which costs fewer page faults when a model is loaded
            # again and again
            flat = np.empty(sum(map(math.prod, shapes.values())), dtype="<f8")
            tensors, pos = {}, 0
            for name, shape in shapes.items():
                tensors[name] = flat[pos:pos + math.prod(shape)].reshape(shape)
                pos += math.prod(shape)
                fh.seek(offsets[name])
                if fh.readinto(tensors[name]) != tensors[name].nbytes:
                    raise ValueError("truncated model file")
        params = ParamStore()
        for name in expected:
            params.register(name, tensors[name])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return version, hyper, params


def load_model(path):
    """Read a saved model back: (ParamStore, Hyperparams)."""
    _, hyper, params = _read_model(path, payloads=True)
    return params, hyper


def read_model_header(path):
    """Header summary without loading payloads: hyperparams plus tensor shapes."""
    version, hyper, shapes = _read_model(path, payloads=False)
    return {"format_version": version, "hyperparams": hyper, "tensors": shapes}
