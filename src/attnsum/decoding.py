"""Summary generation: beam search with hypothesis recombination, a greedy
decoder, and an exact dynamic-programming decoder for toy vocabularies.

All decoders consume a scorer bound to one input sentence. A scorer exposes
`x` (the input ids), `vocab_size`, `context_size`, and
`step_scores(contexts)` mapping a (K, C) block of contexts to (K, V)
per-candidate scores; the model's log-probability scorer and the tuned
log-linear scorer both fit this shape, so every decoder works with either.

Scores are compared as exact floats. Beam search ranks a step's candidates
in one total order: descending score, exact ties broken toward the
lexicographically smallest token sequence (parent tokens plus the new
token), which for a single hypothesis set means the lowest next-token id.
The key is unique within a step, since the parents' contexts, and so their
token sequences, are distinct: the order is total, and the decoded output
depends on the scores alone. A NaN score ranks below every number.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import (PAD_ID, START_ID, UNK_ID, check_byte_cap, detokenize,
                     truncate_bytes)

# viterbi_exact refuses state spaces larger than this
VITERBI_STATE_CAP = 10 ** 6

MODES = ("abstractive", "extractive")


@dataclass(frozen=True)
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
    """Indices into the flattened (hypothesis, candidate) score matrix, in
    the decoder's total order: descending score, exact ties by the token
    sequence beam[k].tokens + (token,) ascending.

    Lazy: the first slice holds the `want` best scores and every score tied
    with the want-th, found by partial selection, and only that slice is
    sorted. When recombination uses it up, the cut doubles and the next
    slice holds only the scores below the previous cut. Parents are
    distinct sequences of one length, so the tie key compares parents in
    lexicographic order first, then token ids.
    """
    n_c = len(cands)
    parent_rank = np.empty(len(beam), dtype=np.int64)
    parent_rank[sorted(range(len(beam)), key=lambda k: beam[k].tokens)] = \
        np.arange(len(beam))
    work = -flat  # partitioned in place, NaN last, as the cut widens
    prev = None
    cut = want
    while True:
        if cut < flat.size:
            work.partition(cut - 1)
            bound = -work[cut - 1]  # the cut-th best score
        else:
            bound = np.nan
        last = np.isnan(bound)  # the cut reaches past the last number
        mask = np.ones(flat.size, dtype=bool) if last else flat >= bound
        if prev is not None:
            mask &= ~(flat >= prev)
        idx = np.flatnonzero(mask)
        order = np.lexsort((cands[idx % n_c], parent_rank[idx // n_c],
                            -flat[idx]))
        yield from idx[order].tolist()
        if last:
            return
        prev = bound
        cut *= 2


def beam_search(scorer, config, step_hook=None):
    """Approximate K-best decoding. Each step expands every surviving
    hypothesis with every candidate, recombines hypotheses that share an
    identical context window (keeping the best-scoring one), and retains the
    K best survivors; the K expansions are scored as one batch. Returns the
    final hypotheses ranked best-first (fewer than K when the context space
    is exhausted). step_hook(step, beam) observes each step's survivors."""
    cands = candidate_ids(scorer, config)
    beam = [_initial(scorer.context_size)]
    for step in range(config.length):
        ctx = np.array([h.context for h in beam], dtype=np.int64)
        flat = scorer.step_scores(ctx)[:, cands]
        flat += np.array([h.score for h in beam])[:, None]
        flat = flat.ravel()
        seen = set()
        next_beam = []
        for idx in _ranked(flat, beam, cands, config.beam):
            k, ci = divmod(idx, len(cands))
            parent = beam[k]
            token = int(cands[ci])
            context = parent.context[1:] + (token,)
            if context in seen:
                continue
            seen.add(context)
            next_beam.append(Hypothesis(tokens=parent.tokens + (token,),
                                        score=float(flat[idx]),
                                        context=context))
            if len(next_beam) == config.beam:
                break
        beam = next_beam
        if step_hook is not None:
            step_hook(step, beam)
    return beam


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
