import dataclasses

import numpy as np
import pytest

from attnsum import decoding
from attnsum.corpus import PAD_ID, START_ID, UNK_ID, Vocab
from attnsum.decoding import (
    MODES,
    DecodeConfig,
    Hypothesis,
    beam_search,
    candidate_ids,
    finalize,
    greedy,
    lockstep_search,
    viterbi_exact,
)
from attnsum.model import (ENCODERS, Hyperparams, Scorer, cond_dist,
                           init_params)


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


def test_beam_matches_oracle_when_row_maxima_tie_at_the_cut():
    """The steps where the beam is full, so that the cut is bounded by the
    smallest row maximum, with that maximum tied across rows: one score
    level puts every row maximum at one value, and a few levels tie some
    of them."""
    tied = 0
    case = 0
    for vocab in (8, 20, 60):
        for levels in (1, 2, 3):
            for beam in (2, 3, 8):
                for mode in ("abstractive", "extractive"):
                    case += 1
                    x = np.random.default_rng(case).integers(3, vocab, 8)
                    scorer = LevelScorer(vocab, 2, levels, case, x,
                                         context_free=levels == 1)
                    config = DecodeConfig(length=4, beam=beam, mode=mode)
                    cands = candidate_ids(scorer, config)
                    got, parents = [], [_initial_beam(scorer)]
                    beam_search(scorer, config, step_hook=lambda s, b: (
                        got.append([(h.tokens, h.score, h.context)
                                    for h in b]),
                        parents.append(b)))
                    assert got == sorted_beam(scorer, config)[0], case
                    for prev in parents[:-1]:
                        if len(prev) < beam:
                            continue
                        rows = scorer.step_scores(
                            np.array([h.context for h in prev]))[:, cands]
                        tops = sorted((rows.max(axis=1) + [
                            h.score for h in prev]).tolist(), reverse=True)
                        tied += tops.count(tops[beam - 1]) > 1
    assert tied


def _initial_beam(scorer):
    return [Hypothesis(tokens=(), score=0.0,
                       context=(START_ID,) * scorer.context_size)]


class NaNScorer(LevelScorer):
    """LevelScorer's scores with NaN in place of some: for some contexts
    every score, for others each row's best scores (where the cut falls),
    and in either case a share of the others at random."""

    def __init__(self, vocab, context, seed, x, share):
        super().__init__(vocab, context, 4, seed, x, context_free=False)
        self.share = share

    def step_scores(self, contexts):
        rows = super().step_scores(contexts)
        for row, ctx in zip(rows, np.asarray(contexts)):
            rng = np.random.default_rng([self.seed, 7] + ctx.tolist())
            kind = rng.integers(0, 4)
            if kind == 0:
                row[:] = np.nan
            elif kind == 1:
                row[row == row.max()] = np.nan
            row[rng.random(row.size) < self.share] = np.nan
        return rows


def nan_last_beam(scorer, config):
    """Beam search by brute force, NaN scores ranked below every number:
    each step sorts all expansions by (NaN, -score, token sequence) and
    keeps the first `beam` with distinct contexts."""
    if config.mode == "extractive":
        pool = sorted(set(scorer.x.tolist()))
    else:
        pool = range(scorer.vocab_size)
    banned = {START_ID, PAD_ID} | ({UNK_ID} if config.forbid_unk else set())
    cands = [t for t in pool if t not in banned]
    beam = [((), 0.0, (START_ID,) * scorer.context_size)]
    steps = []
    for _ in range(config.length):
        rows = scorer.step_scores(np.array([h[2] for h in beam]))
        expansions = []
        for k, (tokens, score, ctx) in enumerate(beam):
            for t in cands:
                s = score + float(rows[k][t])
                nan = s != s
                expansions.append(((nan, 0.0 if nan else -s, tokens + (t,)),
                                   s, ctx[1:] + (t,)))
        expansions.sort(key=lambda e: e[0])
        seen, kept = set(), []
        for (_, _, tokens), s, ctx in expansions:
            if ctx in seen:
                continue
            seen.add(ctx)
            kept.append((tokens, s, ctx))
            if len(kept) == config.beam:
                break
        beam = kept
        steps.append([(t, s.hex(), c) for t, s, c in kept])
    return steps


def test_nan_scores_rank_below_every_number():
    """Every finite expansion is kept ahead of a NaN one, whether the NaN
    sits among a row's best scores or below the cut; when the finite ones
    run out, NaN-scored hypotheses fill the beam, in token order."""
    ran_out = row_bound_with_nan = 0
    case = 0
    for vocab in (8, 20, 60):
        for context in (1, 2):
            for beam in (1, 3, 8):
                for share in (0.3, 0.9):
                    for mode in ("abstractive", "extractive"):
                        case += 1
                        x = np.random.default_rng(case).integers(0, vocab, 9)
                        scorer = NaNScorer(vocab, context, case, x, share)
                        config = DecodeConfig(length=4, beam=beam,
                                              mode=mode)
                        try:
                            candidate_ids(scorer, config)
                        except ValueError:
                            continue  # the input holds only reserved ids
                        got, parents = [], [_initial_beam(scorer)]
                        beam_search(scorer, config, step_hook=lambda s, b: (
                            got.append([(h.tokens, h.score.hex(), h.context)
                                        for h in b]),
                            parents.append(b)))
                        assert got == nan_last_beam(scorer, config), case
                        for prev, kept in zip(parents, parents[1:]):
                            nan = [h.score != h.score for h in kept]
                            assert nan == sorted(nan)
                            ran_out += 0 < sum(nan) and len(kept) == beam
                            row_bound_with_nan += len(prev) >= beam and any(
                                np.isnan(scorer.step_scores(np.array(
                                    [h.context for h in prev]))).ravel())
    assert ran_out and row_bound_with_nan


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


def hex_beams(beams):
    """Each beam as (tokens, score as hex, context) triples: equal only
    when every score has the same bits, NaN included."""
    return [[(h.tokens, h.score.hex(), h.context) for h in beam]
            for beam in beams]


class SharedSteps:
    """A scorer that shares its steps: `inner`'s scores, with one stack_key
    for all, and a stacked step that scores each block by its own scorer
    and records how many sentences shared it."""

    def __init__(self, inner, sizes):
        self.inner = inner
        self.x = inner.x
        self.vocab_size = inner.vocab_size
        self.context_size = inner.context_size
        self.stack_key = "shared"
        self.sizes = sizes

    def step_scores(self, contexts):
        return self.inner.step_scores(contexts)

    @staticmethod
    def stacked_step_scores(scorers, contexts):
        scorers[0].sizes.append(len(scorers))
        return np.array([s.inner.step_scores(block)
                         for s, block in zip(scorers, contexts)])


@pytest.mark.parametrize("mode", MODES)
def test_lockstep_equals_one_sentence_search_on_tied_and_nan_scores(mode):
    """Sentences of tie-heavy and NaN-holding scores, stepped together,
    against each one's own beam_search: every step's beam as the hook sees
    it and the final beams, scores as hex."""
    sizes = []
    for vocab in (8, 20, 60):
        for beam in (1, 3, 8):
            for case in range(4):
                rng = np.random.default_rng([vocab, beam, case])
                inner = []
                for i in range(6):
                    x = rng.integers(3, vocab, size=int(rng.integers(1, 9)))
                    inner.append(
                        NaNScorer(vocab, 2, case * 10 + i, x, 0.3)
                        if case % 2 else
                        LevelScorer(vocab, 1 + case, 3, case * 10 + i, x,
                                    context_free=i % 3 == 0))
                config = DecodeConfig(length=4, beam=beam, mode=mode)
                want = []
                for scorer in inner:
                    steps = []
                    beam_search(scorer, config, step_hook=lambda s, b: (
                        steps.append(hex_beams([b])[0])))
                    want.append(steps)
                got = [[] for _ in inner]

                def hook(step, group):
                    for one in group:
                        got[one.index].append(hex_beams([one.beam])[0])

                beams = lockstep_search(
                    [SharedSteps(scorer, sizes) for scorer in inner], config,
                    step_hook=hook)
                assert got == want, (vocab, beam, case)
                assert hex_beams(beams) == [steps[-1] for steps in want]
    # extractive beams hold as many contexts as their inputs allow, so
    # some sentences step apart from the rest
    assert max(sizes) == 6
    assert (min(sizes) < 6) == (mode == "extractive")


def lockstep_model(encoder):
    """A seeded model whose weights are scaled up so that the beam's
    choices depend on them."""
    hyper = Hyperparams(vocab_size=40, embed_dim=5, hidden_dim=7,
                        context_size=3, encoder=encoder, conv_layers=2,
                        window=1)
    params = init_params(hyper, 5)
    for name in params.names():
        params[name] = 40.0 * params[name]
    return params, hyper


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("mode", MODES)
def test_lockstep_equals_one_sentence_search(encoder, mode, monkeypatch):
    """Model scorers of ragged input lengths, one of whose beams holds
    fewer than `beam` contexts for its first steps, decoded together and
    each alone: equal beams and score bits, with one lockstep group and
    with a LOCKSTEP_BUDGET that splits them into groups of two."""
    params, hyper = lockstep_model(encoder)
    rng = np.random.default_rng(17)
    xs = [rng.integers(3, 40, size=m) for m in (9, 9, 4, 9, 4, 12, 9)]
    xs.insert(3, np.array([3, 4, 3, 4]))
    config = DecodeConfig(length=5, beam=6, mode=mode)
    want = hex_beams([beam_search(Scorer(params, hyper, x), config)
                      for x in xs])
    sizes, groups = [], []
    stacked, lockstep = Scorer.stacked_step_scores, decoding._lockstep

    def recording_stacked(scorers, contexts):
        sizes.append(len(scorers))
        return stacked(scorers, contexts)

    def recording_lockstep(searches, config, step_hook):
        groups.append([search.index for search in searches])
        return lockstep(searches, config, step_hook)

    monkeypatch.setattr(Scorer, "stacked_step_scores",
                        staticmethod(recording_stacked))
    monkeypatch.setattr(decoding, "_lockstep", recording_lockstep)
    for budget in (decoding.LOCKSTEP_BUDGET,
                   2 * config.beam * hyper.vocab_size):
        monkeypatch.setattr(decoding, "LOCKSTEP_BUDGET", budget)
        sizes.clear()
        groups.clear()
        got = lockstep_search((Scorer(params, hyper, x) for x in xs), config)
        assert hex_beams(got) == want
        group = min(len(xs), budget // (config.beam * hyper.vocab_size))
        assert groups == [list(range(lo, min(lo + group, len(xs))))
                          for lo in range(0, len(xs), group)]
        assert max(sizes) == min(group, 4 if encoder == "attention" else 8)


def test_one_sentence_group_steps_through_step_scores(monkeypatch):
    """A sentence that shares its step with none is scored by its own
    step_scores, so a one-sentence decode's step is traced as before."""
    params, hyper = lockstep_model("attention")
    calls = []
    step_scores = Scorer.step_scores

    def counting(self, contexts):
        calls.append(len(contexts))
        return step_scores(self, contexts)

    monkeypatch.setattr(Scorer, "step_scores", counting)
    beam_search(Scorer(params, hyper, [3, 4, 5, 6]),
                DecodeConfig(length=3, beam=4))
    assert calls == [1, 4, 4]


@pytest.mark.parametrize("beam", [1, 8])
def test_large_vocabularies_decode_one_sentence_per_group(beam,
                                                          monkeypatch):
    """With the default LOCKSTEP_BUDGET, a vocabulary just above
    LOCKSTEP_BUDGET // (2 * beam) puts every sentence in a group of its
    own, scored by its own step_scores; just at that size, groups of two
    share stacked steps."""
    groups, stacked = [], []
    lockstep = decoding._lockstep

    def recording_lockstep(searches, config, step_hook):
        groups.append([search.index for search in searches])
        return lockstep(searches, config, step_hook)

    def no_stacking(scorers, contexts):
        stacked.append(len(scorers))
        return [scorer.step_scores(block)
                for scorer, block in zip(scorers, contexts)]

    monkeypatch.setattr(decoding, "_lockstep", recording_lockstep)
    monkeypatch.setattr(Scorer, "stacked_step_scores",
                        staticmethod(no_stacking))
    config = DecodeConfig(length=2, beam=beam)
    half = decoding.LOCKSTEP_BUDGET // (2 * beam)
    for vocab, want in ((half + 1, [[0], [1], [2]]), (half, [[0, 1], [2]])):
        hyper = Hyperparams(vocab_size=vocab, embed_dim=2, hidden_dim=2,
                            context_size=2, encoder="bow")
        params = init_params(hyper, 0)
        groups.clear()
        stacked.clear()
        lockstep_search((Scorer(params, hyper, [3, 4, 5]) for _ in range(3)),
                        config)
        assert groups == want
        assert stacked == ([] if len(want[0]) == 1 else [2] * 2)
