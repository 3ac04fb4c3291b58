import dataclasses

import numpy as np
import pytest

from attnsum.corpus import PAD_ID, START_ID, UNK_ID, Vocab
from attnsum.decoding import (
    DecodeConfig,
    Hypothesis,
    beam_search,
    candidate_ids,
    finalize,
    greedy,
    viterbi_exact,
)
from attnsum.model import Hyperparams, Scorer, cond_dist, init_params


def tiny_scorer(encoder="attention", seed=0, vocab=12, m=5, context=2):
    hyper = Hyperparams(vocab_size=vocab, embed_dim=3, hidden_dim=4,
                        context_size=context, encoder=encoder,
                        conv_layers=1, window=1)
    params = init_params(hyper, seed)
    rng = np.random.default_rng(1000 + seed)
    x = rng.integers(3, vocab, size=m)
    return Scorer(params, hyper, x), params, hyper, x


def enumerate_best(params, hyper, x, config):
    """Brute-force argmax over all candidate sequences, scored per token via
    cond_dist; candidate pool re-derived from the documented rule."""
    if config.mode == "extractive":
        pool = sorted({int(t) for t in x})
    else:
        pool = list(range(hyper.vocab_size))
    banned = {1, 2} | ({0} if config.forbid_unk else set())
    cands = [i for i in pool if i not in banned]
    cache = {}

    def logp(ctx):
        if ctx not in cache:
            cache[ctx] = np.log(cond_dist(params, hyper, x, list(ctx)))
        return cache[ctx]

    best = None

    def rec(tokens, ctx, score):
        nonlocal best
        if len(tokens) == config.length:
            if best is None or score > best[0] or \
                    (score == best[0] and tokens < best[1]):
                best = (score, tokens)
            return
        row = logp(ctx)
        for t in cands:
            rec(tokens + (t,), ctx[1:] + (t,), score + float(row[t]))

    rec((), (START_ID,) * hyper.context_size, 0.0)
    return best


def golden_beam(encoder, mode, seed):
    """Token ids of every hypothesis in the final beam of a seeded model
    whose weights are scaled up so that the beam's choices depend on them."""
    hyper = Hyperparams(vocab_size=40, embed_dim=5, hidden_dim=7,
                        context_size=3, encoder=encoder, conv_layers=2,
                        window=1)
    params = init_params(hyper, seed)
    for name in params.names():
        params[name] = 40.0 * params[name]
    x = np.random.default_rng(seed).integers(3, 40, size=9)
    config = DecodeConfig(length=5, beam=3, mode=mode)
    return [list(h.tokens)
            for h in beam_search(Scorer(params, hyper, x), config)]


# Final beams of golden_beam(encoder, mode, seed=5). The literals were
# recorded once and are kept as they are: a change to the model's or the
# decoder's arithmetic that moves any decoded token fails here.
GOLDEN_BEAMS = {
    ("none", "abstractive"): [[15, 35, 15, 34, 10], [15, 37, 15, 15, 15],
                              [15, 37, 15, 15, 23]],
    ("none", "extractive"): [[39, 20, 27, 32, 27], [39, 20, 39, 39, 27],
                             [39, 20, 27, 32, 32]],
    ("bow", "abstractive"): [[15, 35, 15, 34, 14], [15, 35, 15, 34, 33],
                             [15, 14, 15, 15, 29]],
    ("bow", "extractive"): [[39, 20, 26, 39, 39], [39, 20, 26, 39, 20],
                            [39, 20, 39, 39, 27]],
    ("conv", "abstractive"): [[15, 15, 15, 15, 15], [15, 15, 18, 15, 15],
                              [15, 15, 18, 15, 18]],
    ("conv", "extractive"): [[26, 39, 26, 26, 39], [26, 26, 39, 26, 26],
                             [26, 26, 39, 39, 26]],
    ("attention", "abstractive"): [[15, 35, 15, 34, 33],
                                   [15, 35, 15, 34, 14],
                                   [15, 35, 15, 11, 10]],
    ("attention", "extractive"): [[39, 20, 26, 39, 39],
                                  [39, 20, 26, 39, 20],
                                  [39, 20, 26, 39, 26]],
}


@pytest.mark.parametrize("encoder, mode", sorted(GOLDEN_BEAMS))
def test_golden_decode(encoder, mode):
    assert golden_beam(encoder, mode, 5) == GOLDEN_BEAMS[encoder, mode]


class LevelScorer:
    """Integer-valued scores, so that exact ties are common: each context's
    row holds `levels` distinct values, drawn by a generator seeded with the
    context, or with the seed alone when context_free."""

    def __init__(self, vocab, context, levels, seed, x, context_free):
        self.vocab_size = vocab
        self.context_size = context
        self.levels = levels
        self.seed = seed
        self.x = np.asarray(x, dtype=np.int64)
        self.context_free = context_free

    def step_scores(self, contexts):
        rows = []
        for ctx in np.asarray(contexts):
            key = [self.seed] + ([] if self.context_free else ctx.tolist())
            rows.append(np.random.default_rng(key).integers(
                0, self.levels, self.vocab_size))
        return np.array(rows, dtype=np.float64)


def sorted_beam(scorer, config):
    """Beam search by brute force: each step fully sorts all K*|S|
    expansions by (-score, token sequence) and keeps the first `beam` with
    distinct contexts. Returns the per-step beams as (tokens, score,
    context), and per step how far down the sorted list the beam reached
    and how long its first cut is: the beam-th best score's tie run
    included."""
    if config.mode == "extractive":
        pool = sorted(set(scorer.x.tolist()))
    else:
        pool = range(scorer.vocab_size)
    banned = {START_ID, PAD_ID} | ({UNK_ID} if config.forbid_unk else set())
    cands = [t for t in pool if t not in banned]
    beam = [((), 0.0, (START_ID,) * scorer.context_size)]
    steps, reach = [], []
    for _ in range(config.length):
        rows = scorer.step_scores(np.array([h[2] for h in beam]))
        expansions = sorted(
            (-(score + float(rows[k][t])), tokens + (t,), ctx[1:] + (t,))
            for k, (tokens, score, ctx) in enumerate(beam) for t in cands)
        cut_score = expansions[min(config.beam, len(expansions)) - 1][0]
        first_cut = sum(1 for e in expansions if e[0] <= cut_score)
        seen, kept = set(), []
        for pos, (neg, tokens, ctx) in enumerate(expansions):
            if ctx in seen:
                continue
            seen.add(ctx)
            kept.append((tokens, -neg, ctx))
            if len(kept) == config.beam:
                break
        beam = kept
        steps.append(beam)
        reach.append((pos + 1, first_cut, len(expansions)))
    return steps, reach


@pytest.mark.parametrize("mode", ["abstractive", "extractive"])
def test_beam_matches_fully_sorted_oracle(mode):
    """beam_search against the brute-force sort on tie-heavy scores: every
    step's beam, exact-tie order included."""
    used_up_first_cut = wider_than_expansions = 0
    case = 0
    for vocab in (8, 20, 60, 300):
        for levels in range(1, 8):
            for context in (1, 2, 3):
                for beam in (1, 3, 8, 17):
                    case += 1
                    rng = np.random.default_rng(case)
                    x = rng.integers(0, vocab, size=int(rng.integers(1, 9)))
                    scorer = LevelScorer(vocab, context, levels, case, x,
                                         context_free=case % 3 == 0)
                    config = DecodeConfig(length=4, beam=beam, mode=mode,
                                          forbid_unk=case % 2 == 0)
                    try:
                        candidate_ids(scorer, config)
                    except ValueError:
                        continue  # the input holds only reserved ids
                    got = []
                    beam_search(scorer, config,
                                step_hook=lambda s, b: got.append(
                                    [(h.tokens, h.score, h.context)
                                     for h in b]))
                    want, reach = sorted_beam(scorer, config)
                    assert got == want, (vocab, levels, context, beam)
                    used_up_first_cut += sum(r > f for r, f, _ in reach)
                    wider_than_expansions += sum(beam > n for _, _, n in reach)
    assert used_up_first_cut and wider_than_expansions


def test_beam_k1_equals_greedy():
    for encoder in ("none", "bow", "conv", "attention"):
        for seed in range(5):
            scorer, _, _, _ = tiny_scorer(encoder, seed)
            config = DecodeConfig(length=3, beam=1)
            beam = beam_search(scorer, config)
            g = greedy(scorer, config)
            assert len(beam) == 1
            assert beam[0].tokens == g.tokens
            assert abs(beam[0].score - g.score) < 1e-12


def test_best_score_monotone_in_beam_width():
    for seed in range(6):
        scorer, _, _, _ = tiny_scorer("bow", seed)
        config = DecodeConfig(length=4, beam=1)
        prev = -np.inf
        for k in (1, 2, 4, 8, 16):
            config = dataclasses.replace(config, beam=k)
            best = beam_search(scorer, config)[0].score
            assert best >= prev - 1e-12
            prev = best


def test_full_width_beam_and_viterbi_match_enumeration():
    for seed in range(8):
        encoder = ("none", "bow", "conv", "attention")[seed % 4]
        scorer, params, hyper, x = tiny_scorer(encoder, seed)
        config = DecodeConfig(length=4, beam=hyper.vocab_size ** 2)
        expected_score, expected_tokens = enumerate_best(
            params, hyper, x, config)
        beam_top = beam_search(scorer, config)[0]
        assert beam_top.tokens == expected_tokens
        assert abs(beam_top.score - expected_score) < 1e-9
        vit = viterbi_exact(scorer, config)
        assert vit.tokens == expected_tokens
        assert abs(vit.score - expected_score) < 1e-9


def test_viterbi_degenerate_context_covers_whole_sequence():
    # C >= N: the DP states are whole sequences, equal to plain enumeration
    scorer, params, hyper, x = tiny_scorer("bow", 3, context=3)
    config = DecodeConfig(length=2, beam=1)
    expected_score, expected_tokens = enumerate_best(params, hyper, x, config)
    vit = viterbi_exact(scorer, config)
    assert vit.tokens == expected_tokens
    assert abs(vit.score - expected_score) < 1e-9


def test_viterbi_length_one_equals_greedy():
    scorer, _, _, _ = tiny_scorer("attention", 4)
    config = DecodeConfig(length=1, beam=1)
    assert viterbi_exact(scorer, config).tokens == greedy(scorer,
                                                          config).tokens


def test_score_dominance():
    for seed in range(10):
        scorer, _, _, _ = tiny_scorer("conv", seed)
        config = DecodeConfig(length=4, beam=8)
        v = viterbi_exact(scorer, config).score
        b = beam_search(scorer, config)[0].score
        g = greedy(scorer, config).score
        assert v >= b - 1e-12 >= g - 2e-12


def test_extractive_outputs_use_only_input_tokens():
    for seed in range(6):
        scorer, _, _, x = tiny_scorer("attention", seed)
        config = DecodeConfig(length=5, beam=4, mode="extractive")
        for hyp in beam_search(scorer, config):
            assert set(hyp.tokens) <= {int(t) for t in x}


def test_candidate_set_rules():
    scorer, _, _, x = tiny_scorer("bow", 0)
    config = DecodeConfig(length=1, beam=1)
    cands = candidate_ids(scorer, config)
    assert 0 not in cands and 1 not in cands and 2 not in cands
    assert len(cands) == scorer.vocab_size - 3
    config = dataclasses.replace(config, forbid_unk=False)
    assert 0 in candidate_ids(scorer, config)
    config = dataclasses.replace(config, mode="extractive", forbid_unk=True)
    assert set(candidate_ids(scorer, config).tolist()) == {int(t) for t in x}


def test_empty_candidate_set_errors():
    scorer, params, hyper, _ = tiny_scorer("none", 0)
    scorer = Scorer(params, hyper, [1, 2])  # start and pad only
    with pytest.raises(ValueError, match="candidate"):
        beam_search(scorer, DecodeConfig(length=1, beam=1, mode="extractive"))


def test_recombination_no_duplicate_contexts_and_max_survivors():
    scorer, _, hyper, _ = tiny_scorer("attention", 7)
    config = DecodeConfig(length=4, beam=6)
    steps = []
    beam_search(scorer, config, step_hook=lambda s, b: steps.append(list(b)))
    cands = candidate_ids(scorer, config)
    prev = [Hypothesis(tokens=(), score=0.0,
                       context=(START_ID,) * hyper.context_size)]
    for beam in steps:
        contexts = [h.context for h in beam]
        assert len(contexts) == len(set(contexts))
        ctx = np.array([h.context for h in prev], dtype=np.int64)
        scores = scorer.step_scores(ctx)[:, cands]
        best_by_context = {}
        for k, parent in enumerate(prev):
            for ci, token in enumerate(cands):
                key = parent.context[1:] + (int(token),)
                val = parent.score + float(scores[k, ci])
                if key not in best_by_context or val > best_by_context[key]:
                    best_by_context[key] = val
        for hyp in beam:
            assert abs(hyp.score - best_by_context[hyp.context]) < 1e-12
        prev = beam


def test_decoding_deterministic():
    scorer, _, _, _ = tiny_scorer("conv", 9)
    config = DecodeConfig(length=4, beam=8)
    a = beam_search(scorer, config)
    b = beam_search(scorer, config)
    assert a == b


def test_viterbi_cap_error():
    hyper = Hyperparams(vocab_size=1001, embed_dim=2, hidden_dim=2,
                        context_size=2, encoder="none")
    scorer = Scorer(init_params(hyper, 0), hyper, [3, 4])
    with pytest.raises(ValueError, match="beam search"):
        viterbi_exact(scorer, DecodeConfig(length=2, beam=1))


def test_config_validation():
    with pytest.raises(ValueError, match="length"):
        DecodeConfig(length=0, beam=1)
    with pytest.raises(ValueError, match="beam"):
        DecodeConfig(length=1, beam=0)
    with pytest.raises(ValueError, match="mode"):
        DecodeConfig(length=1, beam=1, mode="other")
    for cap in (0, -1):
        with pytest.raises(ValueError,
                           match=f"^byte cap must be at least 1, got {cap}$"):
            DecodeConfig(length=1, beam=1, byte_cap=cap)
    config = DecodeConfig(length=1, byte_cap=1, forbid_unk=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.beam = 0


def test_finalize_byte_cap():
    vocab = Vocab.build([["word", "café", "x"]], min_count=1)
    ids = vocab.encode(["word", "café", "x"])
    hyp = Hypothesis(tokens=tuple(ids), score=0.0, context=(1, 1))
    assert finalize(hyp, DecodeConfig(length=3, beam=1, byte_cap=75),
                    vocab) == "word café x"
    assert finalize(hyp, DecodeConfig(length=3, beam=1), vocab) == \
        "word café x"
    long_hyp = Hypothesis(tokens=tuple(ids * 20), score=0.0, context=(1, 1))
    capped = finalize(long_hyp, DecodeConfig(length=3, beam=1, byte_cap=75),
                      vocab)
    assert len(capped.encode("utf-8")) <= 75
    # cap lands inside the two-byte é: truncate before the character
    cut = finalize(hyp, DecodeConfig(length=3, beam=1, byte_cap=9), vocab)
    assert cut == "word caf"
    assert len(cut.encode("utf-8")) <= 9
