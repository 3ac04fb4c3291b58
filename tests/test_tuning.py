"""Re-ranking layer tests: feature definitions against hand-worked cases,
linearity and scaling invariance, scorer-protocol consistency, the weights
file, and the minimum-error-rate tuner: its acceptance guarantees, and its
K-best lists, line search and whole loop against brute-force oracles."""

import collections
import json
import os

import numpy as np
import pytest

from attnsum import model, tuning
from attnsum.corpus import Vocab
from attnsum.decoding import MODES, DecodeConfig, beam_search
from attnsum.rouge import EvalInstance, instance_score
from attnsum.tuning import (FEATURE_NAMES, FeatureWeights, TunedScorer,
                            dev_score, features, mert_tune,
                            sequence_features, tuned_score)

# token ids used throughout: a=3, b=4, c=5, d=6, e=7


def small_model(encoder="attention", seed=0, vocab_size=10):
    hyper = model.Hyperparams(vocab_size=vocab_size, embed_dim=3,
                              hidden_dim=4, context_size=2, encoder=encoder,
                              conv_layers=1, window=1)
    return model.init_params(hyper, seed=seed), hyper


def test_identity_weights_and_validation():
    ident = FeatureWeights.identity()
    assert np.array_equal(ident.alpha, [1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        FeatureWeights(np.zeros(4))
    with pytest.raises(ValueError):
        FeatureWeights(np.array([1.0, np.nan, 0, 0, 0]))


def test_weights_json_roundtrip(tmp_path):
    w = FeatureWeights(np.array([0.5, -1.0, 2.0, 0.25, -0.125]))
    path = tmp_path / "weights.json"
    w.save(path)
    back = FeatureWeights.load(path)
    assert np.array_equal(back.alpha, w.alpha)
    assert set(w.to_dict()) == set(FEATURE_NAMES)


def test_weights_from_dict_takes_ints_and_floats():
    d = dict(zip(FEATURE_NAMES, [1, 0, -2, 0.5, 3]))
    assert np.array_equal(FeatureWeights.from_dict(d).alpha,
                          [1.0, 0.0, -2.0, 0.5, 3.0])


def test_weights_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "weights.json"
    FeatureWeights.identity().save(path)
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"bigram": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(tuning.json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        FeatureWeights(np.arange(5.0)).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["weights.json"]
    monkeypatch.undo()
    FeatureWeights(np.arange(5.0)).save(path)
    assert json.loads(path.read_text(encoding="utf-8"))["reorder"] == 4.0
    assert os.listdir(tmp_path) == ["weights.json"]


def test_features_token_absent_from_input():
    f = features(9, x=[3, 4, 5], y_c=[4, 5], logp=-1.5)
    assert f[0] == -1.5
    assert np.array_equal(f[1:], [0, 0, 0, 0])


def test_features_contiguous_bigram_match():
    # x = (a, b, c), context ends in b, next = c
    f = features(5, x=[3, 4, 5], y_c=[1, 4], logp=0.0)
    assert np.array_equal(f[1:], [1, 1, 0, 0])


def test_features_trigram_needs_two_step_history():
    f = features(5, x=[3, 4, 5, 6], y_c=[3, 4], logp=0.0)
    assert np.array_equal(f[1:], [1, 1, 1, 0])
    # a one-token window cannot certify a trigram
    f = features(5, x=[3, 4, 5, 6], y_c=[4], logp=0.0)
    assert np.array_equal(f[1:], [1, 1, 0, 0])


def test_features_reorder_detects_swapped_pair():
    # x = (a, b); previous output b, next a: b occurs after a in x
    f = features(3, x=[3, 4], y_c=[1, 4], logp=0.0)
    assert f[4] == 1.0
    # the other order is not a reorder
    f = features(4, x=[3, 4], y_c=[1, 3], logp=0.0)
    assert f[4] == 0.0


def test_features_start_padding_never_matches():
    f = features(3, x=[3, 4], y_c=[1, 1], logp=0.0)
    assert np.array_equal(f[1:], [1, 0, 0, 0])


def test_features_indicators_are_binary():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.integers(3, 8, size=rng.integers(1, 7))
        f = features(int(rng.integers(3, 8)), x,
                     rng.integers(1, 8, size=2), logp=-2.0)
        assert set(np.unique(f[1:])) <= {0.0, 1.0}


def test_tuned_score_identity_equals_log_prob():
    params, hyper = small_model()
    x = [3, 4, 5, 6]
    y = [4, 5, 4]
    total = 0.0
    y_c = [model.START_ID, model.START_ID]
    for token in y:
        total += float(np.log(model.cond_dist(params, hyper, x, y_c))[token])
        y_c = y_c[1:] + [token]
    got = tuned_score(y, x, FeatureWeights.identity(), params, hyper)
    assert got == pytest.approx(total, rel=1e-12)


def test_tuned_score_zero_weights():
    params, hyper = small_model("bow")
    assert tuned_score([3, 4], [3, 4, 5], FeatureWeights(np.zeros(5)),
                       params, hyper) == 0.0


def test_sequence_features_against_straight_line_recompute():
    params, hyper = small_model("conv", seed=3)
    x = [3, 4, 5, 3, 6]
    y = [4, 3, 5, 5]
    expect = np.zeros(5)
    y_c = [model.START_ID] * 2
    xs = list(x)
    for i, t in enumerate(y):
        expect[0] += float(np.log(model.cond_dist(params, hyper, x, y_c))[t])
        expect[1] += t in xs
        expect[2] += any(xs[j - 1] == y_c[-1] and xs[j] == t
                         for j in range(1, len(xs)))
        expect[3] += any(xs[j - 2] == y_c[-2] and xs[j - 1] == y_c[-1]
                         and xs[j] == t for j in range(2, len(xs)))
        expect[4] += any(xs[k] == y_c[-1] and xs[j] == t
                         for j in range(len(xs))
                         for k in range(j + 1, len(xs)))
        y_c = y_c[1:] + [t]
    got = sequence_features(y, x, params, hyper)
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_positive_scaling_preserves_candidate_ranking():
    params, hyper = small_model("attention", seed=5)
    x = [3, 4, 5, 6, 7]
    rng = np.random.default_rng(11)
    cands = [list(rng.integers(3, 10, size=3)) for _ in range(12)]
    alpha = rng.standard_normal(5)
    for c in (0.1, 1.0, 7.5):
        base = [tuned_score(y, x, FeatureWeights(alpha), params, hyper)
                for y in cands]
        scaled = [tuned_score(y, x, FeatureWeights(c * alpha), params, hyper)
                  for y in cands]
        assert np.array_equal(np.argsort(base), np.argsort(scaled))


@pytest.mark.parametrize("context_size", [1, 2, 3])
@pytest.mark.parametrize("encoder", model.ENCODERS)
def test_tuned_scorer_matches_per_token_features(encoder, context_size):
    hyper = model.Hyperparams(vocab_size=10, embed_dim=3, hidden_dim=4,
                              context_size=context_size, encoder=encoder,
                              conv_layers=1, window=1)
    params = model.init_params(hyper, seed=2)
    rng = np.random.default_rng(context_size)
    # repeated tokens and bigrams, one type, one token, the start id
    inputs = [[3, 4, 5, 3], [3, 4, 3, 4, 5, 3, 6], [4, 4, 4], [5],
              [1, 4, 5, 4, 1, 3]]
    all_weights = [[1.0, 0.7, -0.3, 2.0, 0.4], [0.0, -1.25, 0.0, 0.5, -2.0],
                   [0.37, 0.0, 1.9, -0.61, 0.0], [-0.8, 1.3, 0.9, 0.0, 1.7]]
    for x in inputs:
        base = model.Scorer(params, hyper, x)
        # every window of the input's history, then random windows
        history = [model.START_ID] * context_size + x
        contexts = np.array(
            [history[i:i + context_size] for i in range(len(x) + 1)]
            + rng.choice([1, 3, 4, 5, 6, 9],
                         size=(12, context_size)).tolist())
        logp = base.step_scores(contexts)
        for alpha in all_weights:
            got = TunedScorer(base, FeatureWeights(alpha)).step_scores(
                contexts)
            for r, ctx in enumerate(contexts):
                for v in range(hyper.vocab_size):
                    f = features(v, x, ctx, logp[r, v])
                    want = alpha[0] * f[0]
                    for a, value in zip(alpha[1:], f[1:]):
                        want = want + a * value
                    assert got[r, v] == want, (x, alpha, r, v)


def test_tuned_scorer_holds_no_vocabulary_sized_array():
    x = [3, 4, 5, 3, 6, 4]

    def held_sizes(obj, base):
        sizes = []
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                sizes.append(value.size)
            elif hasattr(value, "__dict__") and value is not base:
                sizes += held_sizes(value, base)
        return sizes

    sizes = []
    for vocab_size in (200, 20000):
        params, hyper = small_model("bow", vocab_size=vocab_size)
        base = model.Scorer(params, hyper, x)
        sizes.append(held_sizes(TunedScorer(base, FeatureWeights.identity()),
                                base))
    assert sizes[0] == sizes[1]
    assert max(sizes[1]) <= len(x)


def test_tuned_scorer_identity_reproduces_base_scores():
    params, hyper = small_model("conv", seed=4)
    base = model.Scorer(params, hyper, [3, 4, 5, 6])
    scorer = TunedScorer(base, FeatureWeights.identity())
    contexts = np.array([[1, 1], [4, 5]])
    assert np.array_equal(scorer.step_scores(contexts),
                          base.step_scores(contexts))


@pytest.mark.parametrize("encoder", ["none", "bow", "conv", "attention"])
def test_identity_tuned_decode_matches_untuned(encoder):
    config = DecodeConfig(length=4, beam=4)
    for seed in range(5):
        params, hyper = small_model(encoder, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = list(rng.integers(3, 10, size=6))
        base = model.Scorer(params, hyper, x)
        plain = beam_search(base, config)[0]
        tuned = beam_search(TunedScorer(base, FeatureWeights.identity()),
                            config)[0]
        assert tuned.tokens == plain.tokens


def letter_vocab():
    counts = collections.Counter(
        {"a": 10, "b": 9, "c": 8, "d": 7, "e": 6})
    return Vocab.from_counts(counts, min_count=1)


def biased_fixture():
    """Context-blind model whose favorite token is not in the input: the
    identity decode is 'e e e', but the reference 'a b c' equals the input
    and is reachable through the match features."""
    vocab = letter_vocab()
    hyper = model.Hyperparams(vocab_size=len(vocab), embed_dim=2,
                              hidden_dim=2, context_size=2, encoder="none")
    params = model.init_params(hyper, seed=0)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    params["b_V"] = np.array([-50.0, -50.0, -50.0, 0.4, 0.3, 0.2, -5.0, 0.5])
    x = vocab.encode(["a", "b", "c"])
    dev = [(x, [["a", "b", "c"]])]
    config = DecodeConfig(length=3, beam=8)
    return params, hyper, vocab, dev, config


def test_mert_requires_dev_data():
    params, hyper, vocab, _, config = biased_fixture()
    with pytest.raises(ValueError):
        mert_tune(params, hyper, vocab, [], config)


def test_dev_score_requires_dev_data():
    params, hyper, vocab, _, config = biased_fixture()
    with pytest.raises(ValueError, match="dev set is empty"):
        dev_score(params, hyper, vocab, [], FeatureWeights.identity(),
                  config, "rouge1")


def test_mert_recovers_extractive_reference():
    params, hyper, vocab, dev, config = biased_fixture()
    before = dev_score(params, hyper, vocab, dev,
                       FeatureWeights.identity(), config, "rouge1")
    assert before == 0.0
    weights = mert_tune(params, hyper, vocab, dev, config, seed=0)
    after = dev_score(params, hyper, vocab, dev, weights, config, "rouge1")
    assert after > before
    assert after == 1.0


def test_mert_is_deterministic():
    params, hyper, vocab, dev, config = biased_fixture()
    w1 = mert_tune(params, hyper, vocab, dev, config, seed=3)
    w2 = mert_tune(params, hyper, vocab, dev, config, seed=3)
    assert np.array_equal(w1.alpha, w2.alpha)


def test_mert_never_decreases_dev_metric():
    vocab = letter_vocab()
    for seed in range(3):
        params, hyper = small_model("bow", seed=seed, vocab_size=len(vocab))
        rng = np.random.default_rng(200 + seed)
        dev = []
        for _ in range(3):
            x = list(rng.integers(3, len(vocab), size=5))
            ref = vocab.decode(rng.integers(3, len(vocab), size=3))
            dev.append((x, [ref]))
        config = DecodeConfig(length=3, beam=4)
        before = dev_score(params, hyper, vocab, dev,
                           FeatureWeights.identity(), config, "rouge1")
        weights = mert_tune(params, hyper, vocab, dev, config,
                            seed=seed, max_rounds=2)
        after = dev_score(params, hyper, vocab, dev, weights, config,
                          "rouge1")
        assert after >= before - 1e-12


# ---- the tuner against brute-force oracles --------------------------------
# The oracles below are the per-entry line search and the tuner loop that
# re-decodes the dev set for every direction and rebuilds each hypothesis's
# features with sequence_features. Of the tuner's own code they call only
# dev_score, to score a weight vector.


def oracle_list_objective(lists, alpha):
    total = 0.0
    for entries in lists:
        scores = np.array([alpha @ feats for feats, _ in entries])
        total += entries[int(np.argmax(scores))][1]
    return total / len(lists)


def oracle_line_search(lists, alpha, direction):
    breakpoints = set()
    for entries in lists:
        offsets = np.array([alpha @ feats for feats, _ in entries])
        slopes = np.array([direction @ feats for feats, _ in entries])
        for i in range(len(entries)):
            diff = slopes - slopes[i]
            mask = diff != 0
            gammas = (offsets[i] - offsets[mask]) / diff[mask]
            breakpoints.update(float(g) for g in gammas if np.isfinite(g))
    grid = sorted(breakpoints)
    probes = [0.0]
    if grid:
        probes.append(grid[0] - 1.0)
        probes.append(grid[-1] + 1.0)
        probes.extend((a + b) / 2 for a, b in zip(grid, grid[1:]))
    best_gamma, best_obj = 0.0, oracle_list_objective(lists, alpha)
    for gamma in probes:
        obj = oracle_list_objective(lists, alpha + gamma * direction)
        if obj > best_obj + 1e-12:
            best_gamma, best_obj = gamma, obj
    return best_gamma, best_obj


def oracle_mert(params, hyper, vocab, dev, config, metric="rouge1", seed=0,
                random_directions=8, max_rounds=4):
    weights = FeatureWeights.identity()
    current = dev_score(params, hyper, vocab, dev, weights, config, metric)
    rng = np.random.default_rng(seed)
    axes = [np.eye(5)[i] for i in range(5)]
    for _ in range(max_rounds):
        improved = False
        directions = axes + [rng.standard_normal(5)
                             for _ in range(random_directions)]
        for direction in directions:
            lists = []
            for x, refs in dev:
                scorer = TunedScorer(model.Scorer(params, hyper, x), weights)
                lists.append([
                    (sequence_features(hyp.tokens, x, params, hyper),
                     instance_score(EvalInstance(vocab.decode(hyp.tokens),
                                                 refs), metric))
                    for hyp in beam_search(scorer, config)])
            gamma, _ = oracle_line_search(lists, weights.alpha, direction)
            if gamma == 0.0:
                continue
            trial = FeatureWeights(weights.alpha + gamma * direction)
            score = dev_score(params, hyper, vocab, dev, trial, config,
                              metric)
            if score > current + 1e-12:
                weights, current = trial, score
                improved = True
        if not improved:
            break
    return weights


def as_entries(lists):
    """Tuner lists (feature sums (n, 5), metrics) as the oracle's lists of
    (feature vector, metric) entries."""
    return [list(zip(feats, metrics)) for feats, metrics in lists]


def random_lists(rng, n_sents, k, integer):
    """Seeded K-best lists with ragged lengths, duplicate entries, lines
    parallel along the axes (shared integer indicator sums) and, for some
    sentences, one metric shared by every entry."""
    lists = []
    for _ in range(n_sents):
        n = int(rng.integers(1, k + 1))
        feats = rng.integers(0, 4, size=(n, 5)).astype(np.float64)
        if integer:
            feats[:, 0] = -rng.integers(0, 12, size=n)
        else:
            feats[:, 0] = -rng.exponential(5.0, size=n)
        metrics = rng.integers(0, 4, size=n) / 3.0
        if n > 1 and rng.random() < 0.4:
            i, j = rng.choice(n, size=2, replace=False)
            feats[j] = feats[i]
        if rng.random() < 0.2:
            metrics[:] = metrics[0]
        lists.append((feats, metrics.tolist()))
    return lists


def test_entry_scores_are_per_entry_dot_products():
    # thousands of entries: on some BLAS builds a gemm of this shape rounds
    # differently from `row @ f` in its last columns
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((tuning._PROBE_BLOCK, 5))
    feats = rng.standard_normal((9719, 5)) * 5
    got = tuning._entry_scores(rows, feats)
    assert got.shape == (len(rows), len(feats))
    cols = np.concatenate([np.arange(len(feats) - 32, len(feats)),
                           rng.integers(0, len(feats), size=100)])
    for r, row in enumerate(rows):
        for c in cols:
            assert got[r, c] == row @ feats[c]


@pytest.mark.parametrize("integer", [False, True])
def test_line_search_matches_per_entry_oracle(integer):
    rng = np.random.default_rng(17 + integer)
    n_probes = []
    for case in range(60):
        k = 1 if case % 10 == 9 else 8
        lists = random_lists(rng, int(rng.integers(1, 14)), k, integer)
        if case % 3 == 0:
            alpha = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        elif integer:
            alpha = rng.integers(-2, 3, size=5).astype(np.float64)
        else:
            alpha = rng.standard_normal(5)
        directions = [np.eye(5)[i] for i in range(5)]
        directions.append(rng.standard_normal(5))
        directions.append(rng.integers(-2, 3, size=5).astype(np.float64))
        for direction in directions:
            got = tuning._line_search(lists, alpha, direction)
            want = oracle_line_search(as_entries(lists), alpha, direction)
            assert got == want, (case, direction)
        n_probes.append(sum(len(m) * (len(m) - 1) for _, m in lists))
    # the cases span several probe blocks, and lists with no breakpoint
    assert max(n_probes) > 4 * tuning._PROBE_BLOCK
    assert min(n_probes) == 0


@pytest.mark.parametrize("encoder", model.ENCODERS)
@pytest.mark.parametrize("mode", MODES)
def test_kbest_feature_sums_equal_sequence_features(encoder, mode):
    vocab = letter_vocab()
    # past 8 steps a pairwise sum would reorder the log-prob additions
    config = DecodeConfig(length=9, beam=5, mode=mode)
    for seed in range(3):
        params, hyper = small_model(encoder, seed=seed,
                                    vocab_size=len(vocab))
        rng = np.random.default_rng(300 + seed)
        dev = [(list(rng.integers(3, len(vocab), size=6)), [["a", "b"]])
               for _ in range(2)]
        weights = FeatureWeights(rng.standard_normal(5))
        decoded = tuning._decode_dev(params, hyper, dev, weights, config)
        lists = tuning._kbest_lists(vocab, decoded, config, "rouge1")
        for (x, _), (beam, _, _), (feats, metrics) in zip(dev, decoded,
                                                          lists):
            assert len(feats) == len(metrics) == len(beam) > 1
            for hyp, row in zip(beam, feats):
                assert np.array_equal(
                    row, sequence_features(hyp.tokens, x, params, hyper))


def bow_dev(seed, vocab):
    params, hyper = small_model("bow", seed=seed, vocab_size=len(vocab))
    rng = np.random.default_rng(200 + seed)
    dev = []
    for _ in range(3):
        x = list(rng.integers(3, len(vocab), size=5))
        ref = vocab.decode(rng.integers(3, len(vocab), size=3))
        dev.append((x, [ref]))
    return params, hyper, dev


def ragged_dev(vocab):
    """An extractive dev set whose first input has two token types: with
    C = 2 and N = 3 its final beam holds the 4 distinct contexts, the
    second sentence's holds 8."""
    params, hyper = small_model("attention", seed=1, vocab_size=len(vocab))
    dev = [([3, 4, 3, 4], [["a", "b"]]), ([3, 4, 5, 6, 7], [["c", "a"]])]
    config = DecodeConfig(length=3, beam=8, mode="extractive")
    return params, hyper, dev, config


def test_ragged_kbest_lists():
    vocab = letter_vocab()
    params, hyper, dev, config = ragged_dev(vocab)
    decoded = tuning._decode_dev(params, hyper, dev,
                                 FeatureWeights.identity(), config)
    lists = tuning._kbest_lists(vocab, decoded, config, "rouge1")
    assert [len(metrics) for _, metrics in lists] == [4, 8]


def recorded_decodes(monkeypatch):
    """Per beam_search call the tuner makes, its scorer's input and the
    survivors of each step, recorded after the tuner's own step_hook."""
    search = tuning.beam_search
    decodes = []

    def recording_search(scorer, config, step_hook=None):
        steps = []
        decodes.append((scorer.x, steps))

        def hook(step, beam):
            step_hook(step, beam)
            steps.append(list(beam))

        return search(scorer, config, step_hook=hook)

    monkeypatch.setattr(tuning, "beam_search", recording_search)
    return decodes


def replayed_feature_sums(params, hyper, x, steps):
    """The final beam's feature sums from scratch: each step's context block
    (its parents' contexts, in beam order) scored afresh by a base Scorer,
    the scalar features of every survivor's token, summed per position."""
    base = model.Scorer(params, hyper, x)
    parents = [((), (model.START_ID,) * hyper.context_size)]
    sums = {(): np.zeros(len(FEATURE_NAMES))}
    for beam in steps:
        logp = base.step_scores(np.array([ctx for _, ctx in parents]))
        row_of = {tokens: r for r, (tokens, _) in enumerate(parents)}
        new = {}
        for hyp in beam:
            r = row_of[hyp.tokens[:-1]]
            token = hyp.tokens[-1]
            new[hyp.tokens] = sums[hyp.tokens[:-1]] + features(
                token, x, parents[r][1], logp[r, token])
        sums = new
        parents = [(hyp.tokens, hyp.context) for hyp in beam]
    return np.array([sums[hyp.tokens] for hyp in steps[-1]])


def carried_sums_case(name):
    """(params, hyper, dev, config) of the ragged dev set, or of an
    '<encoder>-<mode>' case; inputs hold 3 of the 5 letters, so abstractive
    decodes also keep tokens that the input lacks."""
    vocab = letter_vocab()
    if name == "ragged":
        return ragged_dev(vocab)
    encoder, mode = name.split("-")
    params, hyper = small_model(encoder, seed=7, vocab_size=len(vocab))
    dev = [([3, 5, 6, 3, 5, 3], [["a"]]), ([7, 4, 4, 6, 7, 4], [["b"]])]
    return params, hyper, dev, DecodeConfig(length=9, beam=5, mode=mode)


@pytest.mark.parametrize("case", [f"{encoder}-{mode}"
                                  for encoder in model.ENCODERS
                                  for mode in MODES] + ["ragged"])
def test_carried_feature_sums_equal_step_replay(monkeypatch, case):
    params, hyper, dev, config = carried_sums_case(case)
    rng = np.random.default_rng(500)
    decodes = recorded_decodes(monkeypatch)
    lacking = False
    for weights in (FeatureWeights(rng.standard_normal(5)),
                    FeatureWeights.identity()):
        decodes.clear()
        decoded = tuning._decode_dev(params, hyper, dev, weights, config)
        assert len(decodes) == len(decoded) == len(dev)
        for (x, steps), (beam, sums, _) in zip(decodes, decoded):
            assert steps[-1] == beam
            assert np.array_equal(
                sums, replayed_feature_sums(params, hyper, x, steps))
            # a unigram sum below N counts tokens the input lacks
            lacking |= bool((sums[:, 1] < config.length).any())
    assert lacking == (config.mode == "abstractive")
    # under the identity weights the carried log-prob is the decoder's score
    for beam, sums, _ in decoded:
        assert sums[:, 0].tolist() == [hyp.score for hyp in beam]


def test_mert_scores_only_inside_its_decodes(monkeypatch):
    """One Scorer per decoded sentence, and every step_scores call comes
    from inside a decode: the K-best lists re-score nothing."""
    vocab = letter_vocab()
    search = tuning.beam_search
    init, step_scores = model.Scorer.__init__, model.Scorer.step_scores
    calls = collections.Counter()

    def counting_search(scorer, config, step_hook=None):
        calls["decodes"] += 1
        calls["inside"] += 1
        try:
            return search(scorer, config, step_hook=step_hook)
        finally:
            calls["inside"] -= 1

    def counting_init(self, params, hyper, x):
        calls["scorers"] += 1
        init(self, params, hyper, x)

    def checked_step_scores(self, contexts):
        calls["outside"] += calls["inside"] != 1
        return step_scores(self, contexts)

    monkeypatch.setattr(tuning, "beam_search", counting_search)
    monkeypatch.setattr(model.Scorer, "__init__", counting_init)
    monkeypatch.setattr(model.Scorer, "step_scores", checked_step_scores)
    params, hyper, dev, config = ragged_dev(vocab)
    dev = dev + bow_dev(0, vocab)[2]
    mert_tune(params, hyper, vocab, dev, config, seed=1, max_rounds=3)
    assert calls["decodes"] > len(dev)
    assert calls["scorers"] == calls["decodes"]
    assert calls["outside"] == 0


def test_mert_matches_oracle_tuner():
    vocab = letter_vocab()
    cases = [biased_fixture()]
    for seed in range(3):
        params, hyper, dev = bow_dev(seed, vocab)
        cases.append((params, hyper, vocab, dev,
                      DecodeConfig(length=3, beam=4)))
    params, hyper, dev, config = ragged_dev(vocab)
    cases.append((params, hyper, vocab, dev, config))
    for params, hyper, vocab, dev, config in cases:
        for seed in range(2):
            got = mert_tune(params, hyper, vocab, dev, config, seed=seed,
                            max_rounds=2)
            want = oracle_mert(params, hyper, vocab, dev, config, seed=seed,
                               max_rounds=2)
            assert np.array_equal(got.alpha, want.alpha)


def test_mert_decodes_each_weight_vector_once(monkeypatch):
    vocab = letter_vocab()
    search, line_search = tuning.beam_search, tuning._line_search
    calls = collections.Counter()

    def counting_search(scorer, config, step_hook=None):
        calls["decodes"] += 1
        return search(scorer, config, step_hook=step_hook)

    def counting_line_search(lists, alpha, direction):
        gamma, obj = line_search(lists, alpha, direction)
        calls["directions"] += 1
        calls["moves"] += gamma != 0.0
        return gamma, obj

    monkeypatch.setattr(tuning, "beam_search", counting_search)
    monkeypatch.setattr(tuning, "_line_search", counting_line_search)
    params, hyper, dev, config = ragged_dev(vocab)
    dev = dev + bow_dev(0, vocab)[2]
    mert_tune(params, hyper, vocab, dev, config, seed=1, max_rounds=3)
    assert 0 < calls["moves"] < calls["directions"]
    assert calls["decodes"] == len(dev) * (1 + calls["moves"])


def test_mert_reports_the_dev_scores_it_measured():
    vocab = letter_vocab()
    cases = [biased_fixture()]
    for seed in range(3):
        params, hyper, dev = bow_dev(seed, vocab)
        cases.append((params, hyper, vocab, dev,
                      DecodeConfig(length=3, beam=4)))
    params, hyper, dev, config = ragged_dev(vocab)
    cases.append((params, hyper, vocab, dev, config))
    for params, hyper, vocab, dev, config in cases:
        got = mert_tune(params, hyper, vocab, dev, config, seed=1,
                        max_rounds=2)
        assert got.before == dev_score(params, hyper, vocab, dev,
                                       FeatureWeights.identity(), config,
                                       "rouge1")
        assert got.after == dev_score(params, hyper, vocab, dev, got,
                                      config, "rouge1")
