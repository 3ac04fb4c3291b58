"""Corpus pipeline: tokenization, vocabulary, pair filtering, file formats.

Tokenizer rules (fixed, golden-file tested; exact PTB parity is a non-goal):
  1. lowercase the text and replace every decimal digit with '#'
  2. split on whitespace
  3. a chunk made entirely of peelable punctuation is kept as one token
  4. otherwise peel leading and trailing peelable punctuation characters off
     the chunk one at a time, each becoming its own token; '#' (masked
     digits), apostrophes, and hyphens are not peelable, so hyphens,
     apostrophes, and abbreviation dots inside words survive ("u.s.-led",
     "don't", "--")

A byte cap keeps the longest whole-character prefix of a text whose UTF-8
form fits within the cap; a cap below 1 is refused.

Pair files are UTF-8, one pair per line, "headline<TAB>article". Vocabulary
files are one "token<TAB>count" per line with the reserved symbols first.
One reader serves both, and a refusal names the file and line.

A pair is discarded when (checked in this order):
  1. headline and article share no non-stop-word (tokens containing a letter
     and not in the embedded stop-word list)
  2. the headline carries a byline or edit mark: any marker token from
     EDIT_MARKERS, a leading all-dash token, or any bracket token
  3. the headline contains a question mark or colon
"""

import collections
import contextlib
import os
import re

UNK_ID = 0
START_ID = 1
PAD_ID = 2
UNK, START, PAD = "<unk>", "<s>", "<pad>"
RESERVED = (UNK, START, PAD)

# peelable punctuation: excludes '#' (masked digits), apostrophe, hyphen
_PUNCT = "!\"$%&()*+,./:;<=>?@[\\]^_`{|}~‘’“”–—…«»"

# \d on str patterns is exactly the Unicode category Nd
_DIGIT = re.compile(r"\d")

STOPWORDS = frozenset("""
a about above after again against all am an and any are aren't as at be
because been before being below between both but by can cannot could
couldn't did didn't do does doesn't doing don't down during each few for
from further had hadn't has hasn't have haven't having he he'd he'll he's
her here here's hers herself him himself his how how's i i'd i'll i'm i've
if in into is isn't it it's its itself let's me more most mustn't my myself
no nor not of off on once only or other ought our ours ourselves out over
own same shan't she she'd she'll she's should shouldn't so some such than
that that's the their theirs them themselves then there there's these they
they'd they'll they're they've this those through to too under until up
very was wasn't we we'd we'll we're we've were weren't what what's when
when's where where's which while who who's whom why why's will with won't
would wouldn't you you'd you'll you're you've your yours yourself yourselves
""".split())

EDIT_MARKERS = frozenset([
    "by", "byline", "urgent", "advisory", "embargoed", "update", "updates",
    "recasts", "corrects", "correction", "writethru", "ld-writethru",
    "adds", "rpt", "repeating", "dateline", "grafs", "undated",
])

# a headline holding any of these tokens carries an edit mark
_EDIT_TOKENS = EDIT_MARKERS | set("()[]{}")


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open a temp file beside `path` for writing; on a clean exit fsync it
    and os.replace it into place. A failed write leaves any earlier file at
    `path` intact and removes the temp file. A symbolic link keeps pointing
    at the file it names, which is the one replaced. A path that exists but
    is not a regular file, such as /dev/stdout or a pipe, is written in
    place, since replacing it would put a file where the device or pipe
    was."""
    path = os.fspath(path)
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def preprocess(text):
    """Raw string -> token list per the module tokenizer rules."""
    tokens = []
    for chunk in _DIGIT.sub("#", text.lower()).split():
        core = chunk.strip(_PUNCT)
        if not core:
            tokens.append(chunk)
            continue
        lead = len(chunk) - len(chunk.lstrip(_PUNCT))
        tokens.extend(chunk[:lead])
        tokens.append(core)
        tokens.extend(chunk[lead + len(core):])
    return tokens


def detokenize(tokens):
    return " ".join(tokens)


def check_byte_cap(cap):
    """Refuse a byte cap below 1; None means no cap."""
    if cap is not None and cap < 1:
        raise ValueError(f"byte cap must be at least 1, got {cap}")


def truncate_bytes(text, cap):
    """Longest whole-character prefix of text within cap UTF-8 bytes; None
    leaves text whole."""
    check_byte_cap(cap)
    if cap is None:
        return text
    return text.encode("utf-8")[:cap].decode("utf-8", "ignore")


def _is_word(token):
    return any(ch.isalpha() for ch in token)


def has_edit_mark(headline_tokens):
    if not headline_tokens:
        return False
    return (set(headline_tokens[0]) == {"-"}
            or not _EDIT_TOKENS.isdisjoint(headline_tokens))


def which_filter(article_tokens, headline_tokens):
    """None if the pair passes, else the 1-based index of the first failing filter."""
    art = {t for t in article_tokens if _is_word(t) and t not in STOPWORDS}
    head = {t for t in headline_tokens if _is_word(t) and t not in STOPWORDS}
    if not (art & head):
        return 1
    if has_edit_mark(headline_tokens):
        return 2
    if any("?" in t or ":" in t for t in headline_tokens):
        return 3
    return None


class Vocab:
    """Bidirectional token<->id map with reserved UNK / start / padding symbols.

    Ids 0..2 are <unk>, <s>, <pad>; remaining ids are assigned by descending
    frequency, ties broken lexicographically, so construction is deterministic.
    """

    def __init__(self, tokens, counts):
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.counts = dict(counts)

    @classmethod
    def from_counts(cls, counter, min_count=5):
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        kept = [(t, c) for t, c in counter.items()
                if c >= min_count and t not in RESERVED]
        kept.sort(key=lambda tc: (-tc[1], tc[0]))
        unk_total = sum(c for t, c in counter.items()
                        if c < min_count and t not in RESERVED)
        tokens = list(RESERVED) + [t for t, _ in kept]
        counts = {UNK: unk_total, START: 0, PAD: 0}
        counts.update(dict(kept))
        return cls(tokens, counts)

    @classmethod
    def build(cls, token_seqs, min_count=5):
        counter = collections.Counter()
        for seq in token_seqs:
            counter.update(seq)
        return cls.from_counts(counter, min_count)

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        with atomic_open(path) as fh:
            for token in self.id_to_token:
                fh.write(f"{token}\t{self.counts.get(token, 0)}\n")

    @classmethod
    def load(cls, path):
        """One pass over a vocabulary file; a bad line is refused by number."""
        counts, reserved = {}, list(RESERVED)  # the symbols still to come

        def entry(token, count):
            if token in counts:
                raise ValueError(f"duplicate token {token!r}")
            if reserved and token != reserved.pop(0):
                raise ValueError("reserved symbols must occupy ids 0..2")
            counts[token] = int(count)
            return token

        tokens = list(_records(path, "token<TAB>count", entry))
        if reserved:
            raise ValueError(f"{path}: holds {len(tokens)} entries; reserved "
                             "symbols must occupy ids 0..2")
        return cls(tokens, counts)


@contextlib.contextmanager
def text_file(path):
    r"""A UTF-8 text file open for reading; its lines end at '\n', '\r\n' or
    '\r', each read as '\n', and not at other Unicode line separators. Bytes
    that are not UTF-8 are refused as '<path>: not UTF-8 text (...)'."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_lines(path):
    """A text file's lines, without their ends."""
    with text_file(path) as fh:
        return [line.rstrip("\n") for line in fh]


def _records(path, what, record):
    """record(first, second) of each nonblank line of a two-column TSV
    file, lazily. A line with another number of fields, or one that record
    refuses with ValueError, is refused as '<path>:<line>: ...'."""
    with text_file(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) == 2:
                    yield record(fields[0], fields[1])
                elif fields != [""]:
                    raise ValueError(f"expected '{what}', got "
                                     f"{len(fields)} fields")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_pairs(path):
    """Read 'headline<TAB>article' lines -> list of (headline, article)
    strings; either side may be empty."""
    return list(_records(path, "headline<TAB>article", lambda *pair: pair))


def read_token_pairs(path):
    """Read a tokenized pairs file -> list of (headline_tokens,
    article_tokens); a side with no tokens is refused."""
    def token_pair(head, art):
        pair = (head.split(), art.split())
        if not all(pair):
            raise ValueError("empty side in pair")
        return pair

    return list(_records(path, "headline<TAB>article", token_pair))


def write_pairs(path, pairs):
    with atomic_open(path) as fh:
        for headline_tokens, article_tokens in pairs:
            fh.write(f"{detokenize(headline_tokens)}\t{detokenize(article_tokens)}\n")


def preprocess_pairs(raw_pairs):
    """Tokenize and filter raw (headline, article) pairs.

    Returns (kept, counts) where kept is a list of (headline_tokens,
    article_tokens) and counts tallies 'kept', 'empty', and per-filter
    discards under 'filter1'..'filter3'.
    """
    counts = {"kept": 0, "empty": 0, "filter1": 0, "filter2": 0, "filter3": 0}
    kept = []
    for headline, article in raw_pairs:
        head_tokens = preprocess(headline)
        art_tokens = preprocess(article)
        if not head_tokens or not art_tokens:
            counts["empty"] += 1
            continue
        failed = which_filter(art_tokens, head_tokens)
        if failed is not None:
            counts[f"filter{failed}"] += 1
            continue
        counts["kept"] += 1
        kept.append((head_tokens, art_tokens))
    return kept, counts


def require_aligned(path, lines, expected):
    """Refuse a file that should hold one line per line of another file."""
    if len(lines) != expected:
        raise ValueError(f"{path}: {len(lines)} lines, expected {expected} "
                         f"(line {min(len(lines), expected) + 1})")


def encode_pairs(token_pairs, vocab):
    """(headline_tokens, article_tokens) pairs -> (article_ids, headline_ids) pairs.

    Order flips to (input, output) to match the model's (x, y) convention;
    model.step_table refuses a pair with an empty side.
    """
    return [(vocab.encode(art), vocab.encode(head))
            for head, art in token_pairs]
