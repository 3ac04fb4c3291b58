"""Summary generation: beam search with hypothesis recombination, a greedy
decoder, and an exact dynamic-programming decoder for toy vocabularies.

A scorer is bound to one input sentence. It exposes `x` (the input ids),
`vocab_size`, `context_size`, and `step_scores(contexts)` mapping a (K, C)
block of contexts to (K, V) per-candidate scores; the model's
log-probability scorer and the tuned log-linear scorer both fit this shape,
so every decoder works with either.

`lockstep_search` beam-searches many sentences together, one beam step for
all of them at a time, and `beam_search` is its one-sentence case. At each
step, the sentences whose scorers have equal `stack_key`s and whose blocks
have the same row count K share one call of the scorer class's
`stacked_step_scores(scorers, contexts)`, (S, K, C) in and (S, K, V) out,
with each block's scores bit for bit those of its own `step_scores`. A
sentence that shares its step with none, or whose scorer has no
`stack_key`, calls its `step_scores`. Ranking and recombination run per
sentence. The sentences run in lockstep groups of at most
max(1, LOCKSTEP_BUDGET // (beam * V)), so a step's (S, K, V) scores stay
within LOCKSTEP_BUDGET floats unless one sentence's block alone is larger.
Stacking saves a fixed per-call cost per sentence and step, which matters
only while the products are small: above V = LOCKSTEP_BUDGET // (2 * beam)
(4096 at beam 8) every sentence is a group of its own, and holds and
computes what a one-sentence decode does.

Scores are compared as exact floats. Beam search ranks a step's candidates
in one total order: descending score, exact ties broken toward the
lexicographically smallest token sequence (parent tokens plus the new
token), which for a single hypothesis set means the lowest next-token id.
The key is unique within a step, since the parents' contexts, and so their
token sequences, are distinct: the order is total, and the decoded output
depends on the scores alone. A NaN score ranks below every number.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import (PAD_ID, START_ID, UNK_ID, check_byte_cap, detokenize,
                     truncate_bytes)

# viterbi_exact refuses state spaces larger than this
VITERBI_STATE_CAP = 10 ** 6
# the scores, (S, K, V) floats, that one stacked beam step may hold: 512 KiB.
# A tuned attention step (K = 8, H = 100) stacked over 8 sentences costs
# 0.46 of 8 one-sentence steps at V = 200, 0.66 at V = 1000 and 0.92 at
# V = 5000, while 26-sentence groups at V = 20000 raised a 256-line decode's
# peak RSS by 12-49 MB
LOCKSTEP_BUDGET = 1 << 16

MODES = ("abstractive", "extractive")


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """A complete or partial summary: its tokens, accumulated score, and the
    last C tokens (start-padded) that determine every future score."""
    tokens: tuple
    score: float
    context: tuple


@dataclass(frozen=True)
class DecodeConfig:
    length: int
    beam: int = 8
    mode: str = "abstractive"
    byte_cap: int = None
    forbid_unk: bool = True

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("output length must be at least 1")
        if self.beam < 1:
            raise ValueError("beam size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        check_byte_cap(self.byte_cap)


def candidate_ids(scorer, config):
    """The candidate set S, ascending: the whole vocabulary, or the input's
    token types in extractive mode. The synthetic start and pad symbols are
    never generation candidates; UNK is excluded unless forbid_unk is off."""
    if config.mode == "extractive":
        mask = np.zeros(scorer.vocab_size, dtype=bool)
        mask[scorer.x] = True
    else:
        mask = np.ones(scorer.vocab_size, dtype=bool)
    banned = (START_ID, PAD_ID) + ((UNK_ID,) if config.forbid_unk else ())
    mask[[i for i in banned if i < scorer.vocab_size]] = False
    ids = np.flatnonzero(mask).astype(np.int64, copy=False)
    if ids.size == 0:
        raise ValueError("empty candidate set")
    return ids


def _initial(context_size):
    return Hypothesis(tokens=(), score=0.0,
                      context=(START_ID,) * context_size)


def _ranked(flat, beam, cands, want):
    """Indices into the flattened (hypothesis, candidate) score matrix flat
    (K, |S|), in the decoder's total order: descending score, exact ties by
    the token sequence beam[k].tokens + (token,) ascending.

    Lazy: the first slice holds the `want` best scores and every score tied
    with the want-th, and only that slice is sorted. When recombination uses
    it up, the cut doubles and the next slice holds only the scores below
    the previous cut. Parents are distinct sequences of one length, so the
    tie key compares parents in lexicographic order first, then token ids.

    The cut-th best score comes from partial selection. When the beam has
    at least `cut` rows and no score is NaN, the rows' maxima are `cut`
    scores at or above the smallest of them, so the cut-th best score is
    too, and only the scores at or above that smallest row maximum are
    partitioned.
    """
    n_k, n_c = flat.shape
    parent_rank = np.empty(n_k, dtype=np.int64)
    parent_rank[sorted(range(n_k), key=lambda k: beam[k].tokens)] = \
        np.arange(n_k)
    # NaN when any score is NaN. A beam holds at most `want` rows, so only
    # the first cut can use it.
    low = flat.max(axis=1).min() if n_k >= want else math.nan
    flat = flat.ravel()
    prev = None
    cut = want
    while True:
        # the indices partitioned for the bound: None for all of them
        pool = None if math.isnan(low) else (flat >= low).nonzero()[0]
        vals = flat if pool is None else flat[pool]
        if cut <= vals.size:
            work = -vals  # NaN last
            work.partition(cut - 1)
            bound = -work[cut - 1]  # the cut-th best score
        else:
            bound = math.nan
        last = math.isnan(bound)  # the cut reaches past the last number
        mask = np.ones(vals.size, dtype=bool) if last else vals >= bound
        if prev is not None:
            mask &= ~(vals >= prev)
        idx = mask.nonzero()[0] if pool is None else pool[mask]
        order = np.lexsort((cands[idx % n_c], parent_rank[idx // n_c],
                            -flat[idx]))
        yield from idx[order].tolist()
        if last:
            return
        prev = bound
        low = math.nan
        cut *= 2


class Search:
    """One sentence's beam search: its scorer, its position `index` in the
    decoded sequence, the beam, and per hypothesis of the beam the row of
    its parent in the block that the last step scored (`parents`)."""

    def __init__(self, index, scorer, config):
        self.index = index
        self.scorer = scorer
        # a scorer without a stack_key shares no step
        self.key = getattr(scorer, "stack_key", self)
        self.cands = candidate_ids(scorer, config)
        self.ids = self.cands.tolist()
        # a run of ids (the abstractive default) is read as a slice, not
        # gathered
        run = self.ids[-1] + 1 - self.ids[0] == len(self.ids)
        self.cols = slice(self.ids[0], self.ids[-1] + 1) if run \
            else self.cands
        self.beam = [_initial(scorer.context_size)]
        self.parents = []

    def advance(self, scores, width):
        """Expand every hypothesis with every candidate, scored by the
        (K, V) block scores, recombine hypotheses that share a context
        window (keeping the best-scoring one), and keep the `width` best."""
        flat = np.add(scores[:, self.cols],
                      np.array([h.score for h in self.beam])[:, None])
        ids, n_c = self.ids, len(self.ids)
        seen = set()
        beam, parents = [], []
        for idx in _ranked(flat, self.beam, self.cands, width):
            k, ci = divmod(idx, n_c)
            parent = self.beam[k]
            token = ids[ci]
            context = parent.context[1:] + (token,)
            if context in seen:
                continue
            seen.add(context)
            beam.append(Hypothesis(tokens=parent.tokens + (token,),
                                   score=float(flat[k, ci]),
                                   context=context))
            parents.append(k)
            if len(beam) == width:
                break
        self.beam, self.parents = beam, parents


def _step(group, width):
    """Score the blocks of the searches that share a step and advance each.
    The scores are freed on return, before the next step allocates its
    own."""
    ctx = np.array([[h.context for h in search.beam] for search in group],
                   dtype=np.int64)
    first = group[0].scorer
    scores = ([first.step_scores(ctx[0])] if len(group) == 1 else
              first.stacked_step_scores([search.scorer for search in group],
                                        ctx))
    for search, block in zip(group, scores):
        search.advance(block, width)


def _lockstep(searches, config, step_hook):
    """Run the searches of one lockstep group, a step for all at a time."""
    for step in range(config.length):
        groups = {}
        for search in searches:
            groups.setdefault((len(search.beam), search.key), []).append(
                search)
        for group in groups.values():
            _step(group, config.beam)
            if step_hook is not None:
                step_hook(step, group)


def lockstep_search(scorers, config, step_hook=None):
    """Approximate K-best decoding of each scorer's sentence, all of a
    lockstep group's sentences one step at a time (see the module
    docstring). Returns each sentence's final hypotheses, best first (fewer
    than K when the context space is exhausted), in the order of
    `scorers`, an iterable drawn one group at a time. step_hook(step,
    group) observes each step's survivors: group lists the Search of each
    sentence that shared that step's scores, in the order of the stacked
    block."""
    scorers = iter(scorers)
    beams = []
    for first in scorers:
        size = max(1, LOCKSTEP_BUDGET // (config.beam * first.vocab_size))
        searches = [Search(len(beams) + i, scorer, config)
                    for i, scorer in enumerate(
                        itertools.chain([first],
                                        itertools.islice(scorers, size - 1)))]
        _lockstep(searches, config, step_hook)
        beams += [search.beam for search in searches]
    return beams


def beam_search(scorer, config, step_hook=None):
    """lockstep_search of one sentence: its final hypotheses, best first.
    Each step expands every surviving hypothesis with every candidate,
    recombines hypotheses that share an identical context window (keeping
    the best-scoring one), and retains the K best survivors; the K
    expansions are scored as one batch. step_hook(step, beam) observes
    each step's survivors."""
    hook = None if step_hook is None else (
        lambda step, group: step_hook(step, group[0].beam))
    return lockstep_search([scorer], config, hook)[0]


def greedy(scorer, config):
    """Strictly greedy decoding: at each step take the single best candidate,
    lowest id on ties. Identical to beam_search with beam size 1."""
    cands = candidate_ids(scorer, config)
    hyp = _initial(scorer.context_size)
    for _ in range(config.length):
        ctx = np.array([hyp.context], dtype=np.int64)
        row = scorer.step_scores(ctx)[0, cands]
        token = int(cands[int(np.argmax(row))])
        hyp = Hypothesis(tokens=hyp.tokens + (token,),
                         score=hyp.score + float(row.max()),
                         context=hyp.context[1:] + (token,))
    return hyp


def viterbi_exact(scorer, config):
    """Exact argmax over all candidate sequences of the configured length by
    dynamic programming over C-token context states; toy scale only."""
    states_bound = scorer.vocab_size ** scorer.context_size
    if states_bound > VITERBI_STATE_CAP:
        raise ValueError(
            f"V^C = {states_bound} exceeds the exact-decoding cap "
            f"{VITERBI_STATE_CAP}; use beam search")
    cands = candidate_ids(scorer, config)
    c = scorer.context_size
    states = {(START_ID,) * c: (0.0, ())}
    for _ in range(config.length):
        keys = sorted(states)
        scores = scorer.step_scores(np.array(keys, dtype=np.int64))[:, cands]
        new = {}
        for row, key in enumerate(keys):
            base_score, base_tokens = states[key]
            for ci, token in enumerate(cands):
                token = int(token)
                entry = (base_score + float(scores[row, ci]),
                         base_tokens + (token,))
                nkey = key[1:] + (token,)
                cur = new.get(nkey)
                if cur is None or entry[0] > cur[0] or \
                        (entry[0] == cur[0] and entry[1] < cur[1]):
                    new[nkey] = entry
        states = new
    best = None
    for key in sorted(states):
        entry = states[key]
        if best is None or entry[0] > best[0] or \
                (entry[0] == best[0] and entry[1] < best[1]):
            best = entry
    score, tokens = best
    context = ((START_ID,) * c + tokens)[-c:]
    return Hypothesis(tokens=tokens, score=score, context=context)


def finalize(hyp, config, vocab):
    """Detokenize a hypothesis and apply the byte cap, never splitting a
    multi-byte character."""
    return truncate_bytes(detokenize(vocab.decode(list(hyp.tokens))),
                          config.byte_cap)
