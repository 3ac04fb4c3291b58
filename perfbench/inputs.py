"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same inputs, token for token. Nothing here imports the program; callers turn
the generated words and ids into `attnsum` objects.
"""

import numpy as np

# reserved ids 0..2 (<unk>, <s>, <pad>) precede every generated vocabulary
N_RESERVED = 3
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def sub_seed(seed, stream):
    """An independent integer seed for one named input stream of a run."""
    seq = np.random.SeedSequence([int(seed), int(stream)])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def word_list(n_words):
    """n_words distinct lowercase alphabetic words, stable under preprocess
    (no digits or punctuation, so tokenization returns them unchanged)."""
    words = []
    for i in range(n_words):
        chars = []
        k = i
        while True:
            chars.append(_LETTERS[k % 26])
            k //= 26
            if k == 0:
                break
        words.append("w" + "".join(reversed(chars)))
    return words


def vocab_counts(words):
    """Strictly decreasing counts, so the vocabulary orders words by their
    list position: word i gets id i + N_RESERVED."""
    n = len(words)
    return {w: 2 * n - i for i, w in enumerate(words)}


def jump_walk_pairs(n_pairs, vocab_size, m, n_head, seed, p_jump):
    """Copy-style corpus of (article ids, headline ids) pairs.

    Articles walk a fixed permutation ring: each token is the ring successor
    of the previous one with probability 1 - p_jump, otherwise a uniform
    random word. The headline copies the first n_head article tokens. This
    is the corpus of the encoder quality-ordering acceptance criterion.
    """
    rng = np.random.default_rng(seed)
    n_words = vocab_size - N_RESERVED
    perm = np.random.default_rng(12345).permutation(n_words)
    pairs = []
    for _ in range(n_pairs):
        walk = [int(rng.integers(0, n_words))]
        for _ in range(m - 1):
            if rng.random() < p_jump:
                walk.append(int(rng.integers(0, n_words)))
            else:
                walk.append((walk[-1] + 1) % n_words)
        x = np.array([int(perm[p]) + N_RESERVED for p in walk],
                     dtype=np.int64)
        pairs.append((x, x[:n_head]))
    return pairs


def zipf_lines(words, n_lines, min_len, max_len, seed, exponent=1.1):
    """Raw text lines of min_len..max_len words drawn Zipf-like (word i has
    weight (i + 1) ** -exponent). Lines start capitalized and end with a
    period, so the tokenizer has case and punctuation to undo."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, len(words) + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    lines = []
    for _ in range(n_lines):
        n = int(rng.integers(min_len, max_len + 1))
        picks = rng.choice(len(words), size=n, p=weights)
        text = " ".join(words[i] for i in picks)
        lines.append(text[0].upper() + text[1:] + ".")
    return lines


def tune_dev(words, n_sents, m, n_ref, seed, p_jump):
    """Raw (input line, reference line) dev pairs: jump-walk inputs over
    `words` whose reference is the first n_ref input words."""
    vocab_size = len(words) + N_RESERVED
    pairs = jump_walk_pairs(n_sents, vocab_size, m, n_ref, seed, p_jump)
    dev = []
    for x, _ in pairs:
        tokens = [words[int(t) - N_RESERVED] for t in x]
        dev.append((" ".join(tokens), " ".join(tokens[:n_ref])))
    return dev
