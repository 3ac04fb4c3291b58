"""Derandomized fuzz of the file loaders through the command line: every
malformed vocabulary, pairs, weights or model file exits 2 with one
`error:` line, never with an exception out of `main`, and the refusal
starts with that file's path and names, if any line, one that the file
holds.

Each case is malformed by construction (a bad count, a duplicate or
misplaced token, a wrong field count, a byte that is not UTF-8, a
truncated or lengthened model, a header field that contradicts the
tensors), so the property holds for every generated input.
"""

import collections
import json
import math
import struct

import pytest

from attnsum import model
from attnsum.cli import main
from attnsum.corpus import RESERVED, Vocab
from attnsum.tuning import FEATURE_NAMES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=120, derandomize=True, deadline=None,
                           database=None)

WORDS = ("alpha", "bravo", "carol", "delta", "eagle")
# characters that str.split treats as whitespace but a file line does not
# end at
SPACES = " \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"
# text that fits inside one TSV field
FIELD = st.text(st.characters(blacklist_characters="\t\n\r",
                              blacklist_categories=("Cs",)), max_size=8)
# a byte that is never valid in UTF-8 text that is otherwise ASCII
NOT_UTF8 = st.binary(min_size=1, max_size=1).filter(lambda b: b[0] >= 0x80)


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@pytest.fixture
def toy(tmp_path):
    """A conv model (one layer, window 1), its vocabulary and one input
    line, written under tmp_path, and the path that each case writes."""
    vocab = Vocab.from_counts(collections.Counter(
        {w: 9 - i for i, w in enumerate(WORDS)}), min_count=1)
    hyper = model.Hyperparams(vocab_size=len(vocab), embed_dim=3,
                              hidden_dim=4, context_size=2, encoder="conv",
                              conv_layers=1, window=1)
    files = {name: tmp_path / name
             for name in ("model", "vocab", "input", "bad")}
    model.save_model(files["model"], model.init_params(hyper, 0), hyper)
    vocab.save(files["vocab"])
    files["input"].write_text("alpha bravo\n", encoding="utf-8")
    return files


def _refused(capsys, argv):
    """Run the command line; it must exit 2 with one `error:` line on
    stderr and print nothing on stdout. Returns the line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: "), captured.err
    assert captured.err.count("\n") == 1, captured.err
    return captured.err


def _names(err, path, data):
    """err names path first, then either a line that data holds or no
    line at all."""
    assert err.startswith(f"error: {path}"), err
    rest = err[len(f"error: {path}"):]
    if not rest.startswith(": "):
        line = int(rest[1:rest.index(":", 1)])
        assert 1 <= line <= data.count(b"\n") + 1, err


def _insert(data, at, chunk):
    at %= len(data) + 1
    return data[:at] + chunk + data[at:]


@st.composite
def bad_vocab(draw, lines):
    """A vocabulary file's bytes with one defect."""
    lines = list(lines)
    tokens = [line.split("\t")[0] for line in lines]
    i = draw(st.integers(0, len(lines) - 1))
    token, count = lines[i].split("\t")
    kind = draw(st.sampled_from(["count", "duplicate", "reserved",
                                 "fields", "short", "utf8"]))
    if kind == "count":
        lines[i] = f"{token}\t{draw(FIELD.filter(_not_int))}"
    elif kind == "duplicate":
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i] = f"{tokens[j]}\t{count}"
    elif kind == "reserved":
        k = draw(st.integers(0, len(RESERVED) - 1))
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != k))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "fields":
        joiner = draw(st.sampled_from(["", " ", "\t\t", "\t"]))
        extra = draw(FIELD) if joiner == "\t" else ""
        lines[i] = (f"{token}\t{count}\t{extra}" if joiner == "\t" else
                    f"{token}{joiner}{count}")
    elif kind == "short":
        lines = lines[:draw(st.integers(0, len(RESERVED) - 1))]
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if kind == "utf8":
        data = _insert(data, draw(st.integers(0)), draw(NOT_UTF8))
    return data


def test_fuzz_vocabulary_file(toy, capsys):
    lines = toy["vocab"].read_text(encoding="utf-8").splitlines()
    decode = ["decode", "--model", str(toy["model"]), "--vocab",
              str(toy["bad"]), "--input", str(toy["input"]), "--N", "2"]

    @FUZZ
    @hypothesis.given(bad_vocab(lines))
    def case(data):
        toy["bad"].write_bytes(data)
        _names(_refused(capsys, decode), toy["bad"], data)

    case()


@st.composite
def bad_pairs(draw, tokenized):
    """A pairs file's bytes with one defect; an empty side is a defect only
    in a tokenized file."""
    pairs = [["alpha bravo", "alpha bravo carol"],
             ["carol delta", "carol delta eagle"]]
    i = draw(st.integers(0, len(pairs) - 1))
    kinds = ["fields", "utf8"] + (["empty side"] if tokenized else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "fields":
        pairs[i] = draw(st.sampled_from([
            [" ".join(pairs[i])], pairs[i] + [draw(FIELD)],
            pairs[i] + ["", ""]]))
    elif kind == "empty side":
        pairs[i][draw(st.integers(0, 1))] = draw(st.text(SPACES, max_size=3))
    data = "".join("\t".join(p) + "\n" for p in pairs).encode("utf-8")
    if kind == "utf8":
        data = _insert(data, draw(st.integers(0)), draw(NOT_UTF8))
    return data


@pytest.mark.parametrize("command", ["preprocess", "train"])
def test_fuzz_pairs_file(toy, tmp_path, capsys, command):
    outputs = [tmp_path / name for name in ("out.tsv", "out-vocab.tsv",
                                            "run")]
    argv = {"preprocess": ["preprocess", "--pairs", str(toy["bad"]),
                           "--out-pairs", str(outputs[0]),
                           "--out-vocab", str(outputs[1])],
            "train": ["train", "--pairs", str(toy["bad"]), "--vocab",
                      str(toy["vocab"]), "--out-dir", str(outputs[2])]}

    @FUZZ
    @hypothesis.given(bad_pairs(command == "train"))
    def case(data):
        toy["bad"].write_bytes(data)
        _names(_refused(capsys, argv[command]), toy["bad"], data)
        assert not any(path.exists() for path in outputs)

    case()


def _is_weights(value):
    return isinstance(value, dict) and set(value) == set(FEATURE_NAMES)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(FEATURE_NAMES) | st.text(max_size=4), inner,
        max_size=6),
    max_leaves=8).filter(lambda value: not _is_weights(value))
NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=3)
                | st.lists(st.integers(), max_size=2))


@st.composite
def bad_weights(draw):
    """A weights file's text with one defect."""
    weights = {name: draw(st.floats(-2, 2)) for name in FEATURE_NAMES}
    kind = draw(st.sampled_from(["json", "missing", "extra", "value",
                                 "non-finite", "out of range", "truncated"]))
    if kind == "json":
        return json.dumps(draw(JSON))
    name = draw(st.sampled_from(FEATURE_NAMES))
    if kind == "missing":
        del weights[name]
    elif kind == "extra":
        weights[draw(st.text(max_size=6).filter(
            lambda key: key not in FEATURE_NAMES))] = 0.0
    elif kind == "value":
        weights[name] = draw(NOT_A_NUMBER)
    elif kind == "non-finite":
        weights[name] = draw(st.sampled_from([float("nan"), float("inf"),
                                              float("-inf")]))
    elif kind == "out of range":
        weights[name] = 10 ** draw(st.integers(309, 400))
    text = json.dumps(weights)
    if kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def test_fuzz_weights_file(toy, capsys):
    decode = ["decode", "--model", str(toy["model"]), "--vocab",
              str(toy["vocab"]), "--input", str(toy["input"]), "--N", "2",
              "--weights", str(toy["bad"])]

    @FUZZ
    @hypothesis.given(bad_weights())
    def case(text):
        toy["bad"].write_text(text, encoding="utf-8")
        _names(_refused(capsys, decode), toy["bad"], text.encode("utf-8"))

    case()


def _model_layout(data):
    """Byte offsets in a conv model file of the u32 fields whose change
    makes the file contradict itself (the version, the encoder name's
    length, the hyperparameters and tensor count, and each tensor's name
    length, rank and dimensions), and of the magic's, the encoder name's
    and the tensor names' bytes."""
    enc_len = struct.unpack_from("<I", data, 8)[0]
    fields = [4, 8] + [12 + enc_len + 4 * k for k in range(7)]
    names = list(range(4)) + list(range(12, 12 + enc_len))
    at = 12 + enc_len + 28
    for _ in range(struct.unpack_from("<I", data, at - 4)[0]):
        name_len = struct.unpack_from("<I", data, at)[0]
        ndim_at = at + 4 + name_len
        ndim = struct.unpack_from("<I", data, ndim_at)[0]
        shape = struct.unpack_from(f"<{ndim}I", data, ndim_at + 4)
        fields += [at, ndim_at] + [ndim_at + 4 * (k + 1) for k in range(ndim)]
        names += range(at + 4, ndim_at)
        at = ndim_at + 4 + 4 * ndim + 8 * math.prod(shape)
    assert at == len(data)
    return fields, names


@st.composite
def bad_model(draw, data):
    """A model file's bytes with one defect."""
    fields, names = _model_layout(data)
    kind = draw(st.sampled_from(["truncated", "trailing", "field", "name"]))
    if kind == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "trailing":
        return data + draw(st.binary(min_size=1, max_size=16))
    if kind == "field":
        at = draw(st.sampled_from(fields))
        old = struct.unpack_from("<I", data, at)[0]
        new = draw(st.integers(0, 2 ** 32 - 1).filter(lambda v: v != old))
        return data[:at] + struct.pack("<I", new) + data[at + 4:]
    at = draw(st.sampled_from(names))
    byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
    return data[:at] + bytes([byte]) + data[at + 1:]


@pytest.mark.parametrize("command", ["describe", "decode"])
def test_fuzz_model_file(toy, capsys, command):
    argv = {"describe": ["describe", "--model", str(toy["bad"])],
            "decode": ["decode", "--model", str(toy["bad"]), "--vocab",
                       str(toy["vocab"]), "--input", str(toy["input"]),
                       "--N", "2"]}

    @FUZZ
    @hypothesis.given(bad_model(toy["model"].read_bytes()))
    def case(data):
        toy["bad"].write_bytes(data)
        _names(_refused(capsys, argv[command]), toy["bad"], data)

    case()
