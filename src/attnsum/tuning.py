"""Log-linear re-ranking layer: a 5-feature score over (next token, input,
context) and a minimum-error-rate tuner that fits the feature weights to a
corpus recall metric.

Feature vector f(y_next, x, y_c):
  0  log p(y_next | x, y_c) under the neural model
  1  unigram match: y_next occurs in x
  2  bigram match: some j has x[j] = y_next and x[j-1] = previous output
  3  trigram match: same with the previous two outputs
  4  reorder: some k > j has x[k] = previous output and x[j] = y_next

Indicator features use the model's context window for the previous outputs;
history the window cannot see counts as start padding, which matches only an
input holding the start symbol. Every indicator is 0 for a token the input
does not hold. The total candidate score is sum_i alpha . f(y[i], x, y_c_i);
alpha = (1, 0, 0, 0, 0) reproduces the plain decoder score exactly.

Because each candidate's score is linear in alpha, tuning does Och-style
line search: along a direction, every K-best entry is a line alpha_c +
gamma * b_c, the per-sentence argmax is piecewise constant in gamma, and the
corpus metric (a mean of per-sentence scores) can be evaluated exactly on
every linear region. Each distinct weight vector is decoded once: that
pass over the dev set gives its K-best lists (per hypothesis, the feature
sums and the instance metric), whose top entries give the true dev metric
and whose entries feed the next line search. The dev set decodes in
lockstep (decoding.lockstep_search): at each beam step, the sentences of
one input length whose blocks have the same row count K share one stacked
model step and one tuned-feature pass, and one pass per such group carries
the sums along the beams from the rows that step computed. So the lists
hold the features the decoder ranked by, as Och's line search assumes, with
the bits that a decode of each sentence alone gives them. Each hypothesis
of a kept decode is scored by the metric once. A move is only accepted
when the trial weights' own decode strictly improves the true metric, so
the tuner never returns weights worse than its initialization.

The tuner also returns the dev metric it measured at the identity weights
and at the weights it returns, so reporting them costs no decode.
`dev_score`, a fresh decode of the dev set under given weights, is the
oracle those two numbers are held to. The scalar `features` over each
step's context block, scored afresh, is the oracle the carried sums are
held to, bit for bit; `sequence_features` scores a candidate's N steps in
one block instead.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import model
from .corpus import atomic_open, text_file
# beam_search stays bound because perfbench wraps it as tuning.beam_search
from .decoding import beam_search, lockstep_search  # noqa: F401
from .rouge import EvalInstance, instance_score

FEATURE_NAMES = ("log_prob", "unigram", "bigram", "trigram", "reorder")
N_FEATURES = len(FEATURE_NAMES)
# seeded random directions line-searched in each MERT round, after the axes
RANDOM_DIRECTIONS = 8


@dataclass
class FeatureWeights:
    alpha: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (N_FEATURES,):
            raise ValueError(f"alpha must have {N_FEATURES} components")
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("alpha must be finite")

    @classmethod
    def identity(cls):
        return cls()

    def to_dict(self):
        return {name: float(v) for name, v in zip(FEATURE_NAMES, self.alpha)}

    @classmethod
    def from_dict(cls, d):
        """Weights from a mapping of exactly the feature names to real
        numbers; anything else raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("weights must be a JSON object, not "
                             f"{type(d).__name__}")
        if set(d) != set(FEATURE_NAMES):
            raise ValueError(f"weights must name exactly {FEATURE_NAMES}, "
                             f"not {tuple(sorted(d))}")
        alpha = []
        for name in FEATURE_NAMES:
            value = d[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"weight {name!r} must be a number, "
                                 f"not {value!r}")
            try:
                alpha.append(float(value))
            except OverflowError:
                raise ValueError(f"weight {name!r} is out of range") from None
        return cls(np.array(alpha))

    def save(self, path):
        """Write the JSON atomically: a failed save leaves any earlier
        file intact."""
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """Weights from a JSON file; a refusal reads '<path>: <reason>'."""
        with text_file(path) as fh:
            text = fh.read()
        try:
            return cls.from_dict(json.loads(text))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class TunedWeights(FeatureWeights):
    """Weights that mert_tune returned, with the dev metric it measured at
    the identity weights (`before`) and at these weights (`after`); the
    weights file holds only alpha."""
    before: float = 0.0
    after: float = 0.0


def features(y_next, x, y_c, logp):
    """The 5-vector for one step; y_c is the model's context window (most
    recent output last) and logp the model's log-probability of y_next."""
    x = list(map(int, x))
    y_c = tuple(map(int, y_c))
    y_next = int(y_next)
    prev1 = y_c[-1] if len(y_c) >= 1 else model.START_ID
    prev2 = y_c[-2] if len(y_c) >= 2 else model.START_ID
    uni = float(any(t == y_next for t in x))
    big = float(any(x[j] == y_next and x[j - 1] == prev1
                    for j in range(1, len(x))))
    tri = float(any(x[j] == y_next and x[j - 1] == prev1
                    and x[j - 2] == prev2 for j in range(2, len(x))))
    reorder = float(any(x[k] == prev1 and x[j] == y_next
                        for j in range(len(x)) for k in range(j + 1, len(x))))
    return np.array([logp, uni, big, tri, reorder])


def sequence_features(y, x, params, hyper):
    """Position-summed feature vector for a complete candidate y."""
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("candidate must be nonempty")
    scorer = model.Scorer(params, hyper, x)
    contexts = model.context_windows(y, hyper.context_size)
    rows = scorer.step_scores(contexts)
    total = np.zeros(N_FEATURES)
    for i, token in enumerate(y):
        total += features(token, x, contexts[i], rows[i, token])
    return total


def tuned_score(y, x, weights, params, hyper):
    """alpha . (summed features); equals the decoder log-probability of y
    exactly when alpha is the identity configuration."""
    return float(weights.alpha @ sequence_features(y, x, params, hyper))


def _indicators(x, first, contexts):
    """Bigram, trigram and reorder indicators of next token x[s, j] after
    each context of contexts (S, K, C), for S inputs x (S, M) and first
    (S, M), the position of the first occurrence of each x[s, j]: a
    (3, S, K, M) array of 0/1, equal on the columns of one token type."""
    is_prev1 = x[:, None, :] == contexts[:, :, -1:]
    # a one-token window has start padding before it, as in features():
    # one (S, 1, M) row for every context
    is_prev2 = x[:, None, :] == (contexts[:, :, -2:-1]
                                 if contexts.shape[2] > 1 else model.START_ID)
    ind = np.zeros((3,) + is_prev1.shape)
    # a match at position j holds for x[s, j] wherever it occurs: mark it
    # at x[s, j]'s first position and read every position from there
    s, rows, j = np.nonzero(is_prev1[..., :-1])
    ind[0, s, rows, first[s, j + 1]] = 1.0
    s, rows, j = np.nonzero(is_prev2[..., :-2] & is_prev1[..., 1:-1])
    ind[1, s, rows, first[s, j + 2]] = 1.0
    last_prev1 = np.where(is_prev1, np.arange(x.shape[1]), -1).max(axis=2)
    ind[2] = first[:, None, :] < last_prev1[..., None]
    return ind[:, np.arange(len(x))[:, None, None],
               np.arange(contexts.shape[1])[None, :, None], first[:, None, :]]


class TunedScorer:
    """Drop-in per-step scorer for the decoders: returns alpha-weighted
    feature scores instead of log-probabilities. A score is a0 * logp, plus
    the indicator terms on the columns of x; their work scales with the
    input length M, not the vocabulary. Tuned scorers of one base model,
    one weight vector and one input length share a stacked step. `logp`
    (S, K, V) and `indicators` (3, S, K, M) hold the unscaled features of
    the last step that scored this sentence, stacked over the S sentences
    that shared it (S = 1 for step_scores), until the next step."""

    def __init__(self, base, weights):
        self._base = base
        self.weights = weights
        self.vocab_size = base.vocab_size
        self.context_size = base.context_size
        self.x = np.asarray(base.x, dtype=np.int64)
        _, first, pos_type = np.unique(self.x, return_index=True,
                                       return_inverse=True)
        # the position of the first occurrence of each x[j]
        self._first = first[pos_type]
        self.stack_key = (base.stack_key, id(weights), len(self.x))

    def step_scores(self, contexts):
        contexts = np.asarray(contexts, dtype=np.int64)
        return self.stacked_step_scores([self], contexts[None])[0]

    @staticmethod
    def stacked_step_scores(scorers, contexts):
        """step_scores of S tuned scorers that share a stack_key, each on
        its own block of the contexts (S, K, C): (S, K, V)."""
        bases = [scorer._base for scorer in scorers]
        # a lone sentence's step is the base scorer's own 2-D step
        logp = (bases[0].step_scores(contexts[0])[None] if len(bases) == 1
                else bases[0].stacked_step_scores(bases, contexts))
        x = np.array([scorer.x for scorer in scorers])
        ind = _indicators(x, np.array([scorer._first for scorer in scorers]),
                          contexts)
        for scorer in scorers:
            scorer.logp, scorer.indicators = logp, ind
        big, tri, reorder = ind
        a = scorers[0].weights.alpha
        out = logp * a[0]
        # a0 * f0 + a1 * f1 + ... added left to right, with f1 = 1, on the
        # cells (s, k, x[s, j])
        at = (np.arange(len(x))[:, None, None],
              np.arange(contexts.shape[1])[None, :, None], x[:, None, :])
        out[at] = (out[at] + a[1] + a[2] * big + a[3] * tri
                   + a[4] * reorder)
        return out


def _decode_dev(params, hyper, dev, weights, config):
    """One decode of the dev set under `weights`, in lockstep: per (input
    ids, references) pair, its final beam (best first), the beam's feature
    sums (n, 5) and the references. A survivor's sums are its parent's plus
    the feature row that the tuned step computed for its token, added in
    position order from zeros, as sequence_features adds them; one pass
    per step group carries them for all of the group's sentences. Scorers
    are not kept past their lockstep group: each base Scorer holds a (1, V)
    enc_logit for a bow or conv model, 160 KB at V=20k."""
    if not dev:
        raise ValueError("dev set is empty")
    # per sentence index: token -> a column of x holding it, and the beam's
    # feature sums
    cols, sums = {}, {}

    def carry(step, group):
        if step == 0:
            for search in group:
                x = search.scorer.x.tolist()
                cols[search.index] = dict(zip(x, range(len(x))))
                sums[search.index] = np.zeros((1, N_FEATURES))
        sizes = [len(search.beam) for search in group]
        s = np.repeat(np.arange(len(group)), sizes)
        # per survivor: its parent's row k in its sentence's block, its
        # token, and j, a column of the token's type in x; -1, masked to 0,
        # if x lacks it
        k, tokens, j = np.array([
            (k, hyp.tokens[-1], cols[search.index].get(hyp.tokens[-1], -1))
            for search in group
            for k, hyp in zip(search.parents, search.beam)]).T
        scorer = group[0].scorer
        rows = np.empty((len(s), N_FEATURES))
        rows[:, 0] = scorer.logp[s, k, tokens]
        rows[:, 1] = j >= 0
        rows[:, 2:] = scorer.indicators[:, s, k, j].T * rows[:, 1:2]
        rows += np.stack([sums[search.index] for search in group])[s, k]
        for search, part in zip(group, np.split(rows,
                                                np.cumsum(sizes)[:-1])):
            sums[search.index] = part

    scorers = (TunedScorer(model.Scorer(params, hyper, x), weights)
               for x, _ in dev)
    beams = lockstep_search(scorers, config, step_hook=carry)
    return [(beam, sums[i], refs)
            for i, (beam, (_, refs)) in enumerate(zip(beams, dev))]


def _instance_metric(vocab, hyp, refs, config, metric):
    inst = EvalInstance(candidate=vocab.decode(hyp.tokens), references=refs)
    return instance_score(inst, metric, byte_cap=config.byte_cap)


def _best_metrics(decoded, vocab, config, metric):
    """The instance metric of each sentence's best hypothesis."""
    return [_instance_metric(vocab, beam[0], refs, config, metric)
            for beam, _, refs in decoded]


def _dev_metric(best):
    """The mean of the best hypotheses' metrics."""
    return sum(best) / len(best)


def dev_score(params, hyper, vocab, dev, weights, config, metric):
    """True corpus metric of the tuned decoder on (input ids, references)
    dev pairs; this is the quantity mert_tune maximizes. It decodes the dev
    set afresh: the oracle that mert_tune's `before` and `after` equal."""
    return _dev_metric(_best_metrics(
        _decode_dev(params, hyper, dev, weights, config), vocab, config,
        metric))


def _kbest_lists(vocab, decoded, best, config, metric):
    """Per decoded dev pair, its final beam's feature sums (n, 5), as the
    decode carried them, and instance metrics (n values), best first; the
    first entry's metric is taken from best (_best_metrics), so each
    hypothesis is scored once. Scores are linear in alpha, so line search
    over these lists is exact on the lists."""
    return [(sums, [top] + [_instance_metric(vocab, hyp, refs, config, metric)
                            for hyp in beam[1:]])
            for (beam, sums, refs), top in zip(decoded, best)]


# weight vectors scored per block in the line search: the score temporaries
# hold _PROBE_BLOCK x (entries of all lists) values
_PROBE_BLOCK = 64


def _entry_scores(rows, feats):
    """Scores of weight rows (R, 5) on entries feats (N, 5): (R, N). Each
    is the BLAS ddot that `row @ f` computes for one pair, run from numpy's
    matmul loop over a batch of (1, 5) @ (5, 1) products. A gemm does not
    reproduce that ddot in the last digit on every shape, and one breakpoint
    moved by an ulp can change the tuned weights."""
    return np.matmul(rows[:, None, None, :],
                     feats[None, :, :, None])[:, :, 0, 0]


def _stack(lists):
    """The K-best lists padded to the longest: feature sums (S, K, 5),
    metrics (S, K), and which entries are real (S, K)."""
    k = max(len(metrics) for _, metrics in lists)
    feats = np.zeros((len(lists), k, N_FEATURES))
    metrics = np.zeros((len(lists), k))
    valid = np.zeros((len(lists), k), dtype=bool)
    for s, (f, m) in enumerate(lists):
        feats[s, :len(m)] = f
        metrics[s, :len(m)] = m
        valid[s, :len(m)] = True
    return feats, metrics, valid


def _objectives(rows, feats, metrics, valid):
    """Per weight row, the mean metric of each sentence's best-scoring
    entry. The first entry wins ties and padding never wins."""
    s, k = metrics.shape
    flat = feats.reshape(s * k, N_FEATURES)
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _PROBE_BLOCK):
        scores = _entry_scores(rows[lo:lo + _PROBE_BLOCK], flat)
        scores = scores.reshape(-1, s, k)
        scores[:, ~valid] = -np.inf
        won = metrics[np.arange(s), scores.argmax(axis=2)]
        # a running sum keeps sentence order; np.sum adds pairwise
        out[lo:lo + _PROBE_BLOCK] = np.cumsum(won, axis=1)[:, -1] / s
    return out


def _line_search(lists, alpha, direction):
    """Best step size along one direction, exact over the K-best lists: the
    per-sentence winner is piecewise constant in the step, with region
    boundaries at pairwise line intersections. Probes are 0, one step
    beyond each end of the sorted breakpoints and every midpoint between
    them, tried in that order; a probe must beat the best so far by 1e-12."""
    feats, metrics, valid = _stack(lists)
    s, k = metrics.shape
    offsets, slopes = _entry_scores(
        np.array([alpha, direction]),
        feats.reshape(s * k, N_FEATURES)).reshape(2, s, k)
    # [s, i, j]: where the lines of entries i and j of sentence s cross
    run = slopes[:, None, :] - slopes[:, :, None]
    crosses = valid[:, :, None] & valid[:, None, :] & (run != 0)
    gammas = ((offsets[:, :, None] - offsets[:, None, :])[crosses]
              / run[crosses])
    # sort and dedupe: np.unique's first call pages in more memory
    grid = np.sort(gammas[np.isfinite(gammas)])
    keep = np.ones(grid.size, dtype=bool)
    keep[1:] = grid[1:] != grid[:-1]
    grid = grid[keep]
    probes = np.concatenate([[0.0], grid[:1] - 1.0, grid[-1:] + 1.0,
                             (grid[:-1] + grid[1:]) / 2])
    rows = np.vstack([alpha, alpha + probes[:, None] * direction])
    objs = _objectives(rows, feats, metrics, valid).tolist()
    best_gamma, best_obj = 0.0, objs[0]
    for gamma, obj in zip(probes.tolist(), objs[1:]):
        if obj > best_obj + 1e-12:
            best_gamma, best_obj = gamma, obj
    return best_gamma, best_obj


def mert_tune(params, hyper, vocab, dev, config, metric="rouge1", seed=0,
              max_rounds=4):
    """Minimum-error-rate tuning of the feature weights against the dev
    corpus metric. Each round line-searches the 5 coordinate axes plus
    seeded random directions over the current weights' K-best lists; a
    move is kept only if decoding the dev set under the trial weights
    strictly improves the true metric, and then that same decode gives the
    lists for the next direction. Each distinct weight vector is decoded
    once. The search starts from the identity weights, and the weights
    returned never have a lower dev metric than those. Returns TunedWeights:
    the weights, with the dev metric of the identity decode as `before` and
    that of the returned weights' decode as `after`."""
    dev = list(dev)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    weights = FeatureWeights.identity()
    decoded = _decode_dev(params, hyper, dev, weights, config)
    best = _best_metrics(decoded, vocab, config, metric)
    before = current = _dev_metric(best)
    lists = _kbest_lists(vocab, decoded, best, config, metric)
    axes = [np.eye(N_FEATURES)[i] for i in range(N_FEATURES)]
    for _ in range(max_rounds):
        improved = False
        directions = axes + [rng.standard_normal(N_FEATURES)
                             for _ in range(RANDOM_DIRECTIONS)]
        for direction in directions:
            gamma, _ = _line_search(lists, weights.alpha, direction)
            if gamma == 0.0:
                continue
            trial = FeatureWeights(weights.alpha + gamma * direction)
            decoded = _decode_dev(params, hyper, dev, trial, config)
            best = _best_metrics(decoded, vocab, config, metric)
            score = _dev_metric(best)
            if score > current + 1e-12:
                weights, current = trial, score
                lists = _kbest_lists(vocab, decoded, best, config, metric)
                improved = True
        if not improved:
            break
    return TunedWeights(weights.alpha, before=before, after=current)
