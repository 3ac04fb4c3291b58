import collections
import os

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


def test_encode_pairs_flips_to_input_output():
    vocab = Vocab.build([["markets", "fall", "sharply"]], min_count=1)
    kept, _ = preprocess_pairs([("markets fall", "markets fall sharply")])
    encoded = corpus.encode_pairs(kept, vocab)
    (x, y), = encoded
    assert vocab.decode(x) == ["markets", "fall", "sharply"]
    assert vocab.decode(y) == ["markets", "fall"]
