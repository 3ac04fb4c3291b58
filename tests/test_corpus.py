import collections
import os
import random
import stat
import sys
import unicodedata

import numpy as np
import pytest

from attnsum import corpus
from attnsum.corpus import (
    PAD,
    PAD_ID,
    START,
    START_ID,
    UNK,
    UNK_ID,
    Vocab,
    preprocess,
    preprocess_pairs,
    truncate_bytes,
    which_filter,
)
from attnsum.cli import _prefix_line

# expected outputs hand-derived from the documented tokenizer rules
GOLDEN = [
    ("Death toll rises to 95", ["death", "toll", "rises", "to", "##"]),
    ("", []),
    ("U.S.-led", ["u.s.-led"]),
    ("Hello, world!", ["hello", ",", "world", "!"]),
    ('"Quoted" text.', ['"', "quoted", '"', "text", "."]),
    ("don't stop", ["don't", "stop"]),
    ("mid-1990s run", ["mid-####s", "run"]),
    ("(Reuters) - Stocks fell 3.2 percent:",
     ["(", "reuters", ")", "-", "stocks", "fell", "#.#", "percent", ":"]),
    ("ends...", ["ends", ".", ".", "."]),
    ("rose to ## on -- yes -- Monday",
     ["rose", "to", "##", "on", "--", "yes", "--", "monday"]),
]


@pytest.mark.parametrize("raw,expected", GOLDEN)
def test_preprocess_golden(raw, expected):
    assert preprocess(raw) == expected


def test_preprocess_idempotent_on_own_output():
    for raw, _ in GOLDEN:
        once = preprocess(raw)
        assert preprocess(" ".join(once)) == once


def test_build_vocab_min_count():
    vocab = Vocab.build([["a", "a", "a", "b"]], min_count=2)
    assert "a" in vocab
    assert "b" not in vocab
    assert vocab.encode(["b"]) == [UNK_ID]
    assert vocab.counts[UNK] == 1


def test_build_vocab_keeps_everything_at_min_count_one():
    seqs = [["x", "y", "z"], ["x"]]
    vocab = Vocab.build(seqs, min_count=1)
    for t in ("x", "y", "z"):
        assert t in vocab


def test_reserved_symbols_fixed_positions():
    vocab = Vocab.build([["a"]], min_count=1)
    assert vocab.decode([UNK_ID, START_ID, PAD_ID]) == [UNK, START, PAD]
    empty = Vocab.build([], min_count=5)
    assert len(empty) == 3


def test_vocab_id_order_frequency_then_lexicographic():
    vocab = Vocab.build([["b", "b", "a", "a", "c", "c", "c"]], min_count=1)
    # c has count 3; a and b tie at 2 -> lexicographic
    assert vocab.decode([3, 4, 5]) == ["c", "a", "b"]


def test_vocab_counting_oracle_zipfian():
    # independent frequency count (plain Counter arithmetic) vs Vocab.build
    rng = np.random.default_rng(11)
    types = [f"w{i}" for i in range(300)]
    weights = 1.0 / np.arange(1, 301)
    weights /= weights.sum()
    sents = [
        [types[j] for j in rng.choice(300, size=rng.integers(4, 12), p=weights)]
        for _ in range(1000)
    ]
    counter = collections.Counter(t for s in sents for t in s)
    expected_kept = sum(1 for c in counter.values() if c >= 5)
    vocab = Vocab.build(sents, min_count=5)
    assert len(vocab) - 3 == expected_kept
    assert vocab.counts[UNK] == sum(c for c in counter.values() if c < 5)


def test_vocab_deterministic():
    sents = [["q", "r", "r", "s"], ["s", "s"]]
    a = Vocab.build(sents, min_count=1)
    b = Vocab.build(sents, min_count=1)
    assert a.id_to_token == b.id_to_token
    assert a.counts == b.counts


def test_encode_decode_roundtrip():
    vocab = Vocab.build([["alpha", "beta", "gamma"]], min_count=1)
    ids = vocab.encode(["alpha", "beta", "gamma"])
    assert vocab.decode(ids) == ["alpha", "beta", "gamma"]
    # decode-encode maps any token to itself or UNK
    for tok in ["alpha", "nonsense"]:
        rt = vocab.decode(vocab.encode([tok]))[0]
        assert rt in (tok, UNK)


def test_vocab_file_roundtrip(tmp_path):
    vocab = Vocab.build([["m", "m", "n"]], min_count=1)
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.counts == vocab.counts


def test_vocab_save_is_atomic(tmp_path, disk_full_after):
    path = tmp_path / "vocab.tsv"
    Vocab.build([["m", "m", "n"]], min_count=1).save(path)
    before = path.read_bytes()
    disk_full_after(len(before) // 2)
    with pytest.raises(OSError):
        Vocab.build([["p", "q", "q", "r"]], min_count=1).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["vocab.tsv"]


def test_atomic_open_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with corpus.atomic_open(fifo) as fh:
            fh.write("through the pipe\n")
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["out.fifo"]


def test_atomic_open_replaces_the_file_a_link_names(tmp_path):
    target = tmp_path / "real.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    with corpus.atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_filter_question_mark_and_colon():
    art = preprocess("markets fall sharply in asia")
    assert which_filter(art, preprocess("markets fall ?")) == 3
    assert which_filter(art, preprocess("markets : asia falls")) == 3


def test_filter_keeps_shared_content_word():
    art = preprocess("markets fall sharply in asia")
    assert which_filter(art, preprocess("markets tumble again")) is None


def test_filter_no_shared_content_words():
    art = preprocess("markets fall sharply in asia")
    head = preprocess("the of and")
    assert which_filter(art, head) == 1


def test_filter_edit_marks():
    art = preprocess("markets fall sharply in asia")
    assert which_filter(art, preprocess("markets fall by john doe")) == 2
    assert which_filter(art, preprocess("-- markets fall in asia")) == 2
    assert which_filter(art, preprocess("markets fall ( urgent )")) == 2


def test_filter_is_pure_and_idempotent():
    raw = [
        ("Markets fall", "Markets fall sharply in asia"),
        ("markets fall ?", "markets fall sharply"),
        ("the of", "markets fall sharply"),
    ]
    kept1, counts1 = preprocess_pairs(raw)
    kept2, counts2 = preprocess_pairs(raw)
    assert kept1 == kept2
    assert counts1 == counts2
    assert counts1["kept"] == 1
    assert counts1["filter3"] == 1
    assert counts1["filter1"] == 1


def test_preprocess_pairs_empty_sides():
    _, counts = preprocess_pairs([("", "some article text"), ("head", "")])
    assert counts["empty"] == 2


def test_pair_file_roundtrip(tmp_path):
    kept, _ = preprocess_pairs([("Markets fall", "Markets fall sharply in asia")])
    path = tmp_path / "pairs.tsv"
    corpus.write_pairs(path, kept)
    raw = corpus.read_pairs(path)
    assert raw == [("markets fall", "markets fall sharply in asia")]


def test_read_pairs_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:1"):
        corpus.read_pairs(path)


def test_truncate_bytes():
    assert truncate_bytes("abc def", 75) == "abc def"
    assert truncate_bytes("abcdef", 4) == "abcd"
    assert truncate_bytes("abc", None) == "abc"
    # 2-byte chars: cap lands mid-character -> truncate before it
    s = "ééé"  # 6 bytes
    assert truncate_bytes(s, 5) == "éé"
    assert len(truncate_bytes(s, 5).encode("utf-8")) <= 5
    # 4-byte char
    s4 = "a\U0001F600b"
    assert truncate_bytes(s4, 3) == "a"


@pytest.mark.parametrize("cap", [0, -3])
def test_truncate_bytes_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="byte cap must be at least 1"):
        truncate_bytes("abc", cap)


# Oracles: the per-character tokenizer and edit-mark test as first written,
# a brute-force byte cap, and the baseline's token-by-token prefix loop.
_REF_PUNCT = set("!\"$%&()*+,./:;<=>?@[\\]^_`{|}~‘’“”–—…«»")


def reference_preprocess(text):
    masked = "".join("#" if unicodedata.category(ch) == "Nd" else ch
                     for ch in text.lower())
    tokens = []
    for chunk in masked.split():
        if all(c in _REF_PUNCT for c in chunk):
            tokens.append(chunk)
            continue
        lead, trail = [], []
        while chunk and chunk[0] in _REF_PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _REF_PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def reference_has_edit_mark(tokens):
    if tokens and tokens[0] and all(c == "-" for c in tokens[0]):
        return True
    return any(t in corpus.EDIT_MARKERS or t in ("(", ")", "[", "]", "{", "}")
               for t in tokens)


def reference_truncate(text, cap):
    k = len(text)
    while len(text[:k].encode("utf-8")) > cap:
        k -= 1
    return text[:k]


def reference_prefix_line(line, cap):
    tokens = preprocess(line)
    kept = []
    for token in tokens:
        if len(" ".join(kept + [token]).encode("utf-8")) > cap:
            break
        kept.append(token)
    if kept or not tokens:
        return " ".join(kept)
    return reference_truncate(tokens[0], cap)


ND_DIGITS = [chr(c) for c in range(sys.maxunicode + 1)
             if unicodedata.category(chr(c)) == "Nd"]
# letters (Turkish dotted I, sharp s, sigma and the fi ligature change
# length or form when lowercased), every peelable mark, the unpeelable
# "#'-", and whitespace beyond ASCII
TEXT_CHARS = (list("abzABZ#'-İßΣﬁé日😀") + sorted(_REF_PUNCT)
              + [" ", "\t", "\n", "\u3000", "\u0085", "\u001c"])
EDIT_WORDS = ["by", "Urgent", "--", "-", "(", "]", "{", "markets"]


def random_text(rng):
    chars = [rng.choice(TEXT_CHARS if rng.random() < 0.8 else ND_DIGITS)
             for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.3:
        chars.insert(rng.randint(0, len(chars)),
                     f" {rng.choice(EDIT_WORDS)} ")
    return "".join(chars)


def test_preprocess_matches_per_character_oracle():
    rng = random.Random(13)
    texts = [random_text(rng) for _ in range(4000)] + ["".join(ND_DIGITS)]
    for text in texts:
        tokens = preprocess(text)
        assert tokens == reference_preprocess(text), text
        assert corpus.has_edit_mark(tokens) == reference_has_edit_mark(tokens)
    assert preprocess("".join(ND_DIGITS)) == ["#" * len(ND_DIGITS)]


@pytest.mark.parametrize("text,cap,expected", [
    ("éa", 2, "é"), ("日本語x", 6, "日本"),
    ("a\U0001F600b", 5, "a\U0001F600")])
def test_truncate_bytes_keeps_a_character_ending_at_the_cap(text, cap,
                                                           expected):
    assert truncate_bytes(text, cap) == expected


def test_truncate_bytes_matches_brute_force_prefix():
    rng = random.Random(5)
    # 1- to 4-byte characters
    chars = ["a", "z", " ", "é", "ß", "日", "€", "\U0001F600",
             "\U00010348"]
    for _ in range(3000):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 12)))
        cap = rng.randint(1, 50)
        assert truncate_bytes(text, cap) == reference_truncate(text, cap)


def test_prefix_line_matches_token_by_token_loop():
    rng = random.Random(21)
    for _ in range(3000):
        line = random_text(rng)
        cap = rng.randint(1, 40)
        assert _prefix_line(line, cap) == reference_prefix_line(line, cap)


def test_encode_pairs_flips_to_input_output():
    vocab = Vocab.build([["markets", "fall", "sharply"]], min_count=1)
    kept, _ = preprocess_pairs([("markets fall", "markets fall sharply")])
    encoded = corpus.encode_pairs(kept, vocab)
    (x, y), = encoded
    assert vocab.decode(x) == ["markets", "fall", "sharply"]
    assert vocab.decode(y) == ["markets", "fall"]
