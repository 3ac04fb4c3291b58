"""End-to-end command-line tests: exit codes, the preprocess/train/decode/
tune/eval pipeline, serialization round-trips, trace export, and the prefix
baseline."""

import argparse
import collections
import json
import os
import pathlib
import resource
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import attnsum
from attnsum import model, tuning
from attnsum.cli import _build_parser, main
from attnsum.corpus import Vocab
from attnsum.decoding import DecodeConfig, beam_search, finalize
from attnsum.tuning import TunedScorer, FeatureWeights

PACKAGE_ROOT = str(pathlib.Path(attnsum.__file__).resolve().parent.parent)
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

WORDS = ["alpha", "bravo", "carol", "delta", "eagle", "frost"]


def write_raw_pairs(path, n=24, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        art = [WORDS[i] for i in rng.integers(0, len(WORDS), size=5)]
        lines.append(" ".join(art[:2]) + "\t" + " ".join(art))
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")


def run_pipeline(tmp_path, encoder="bow", epochs=2, seed=1):
    raw = tmp_path / "raw.tsv"
    tok = tmp_path / "pairs.tsv"
    voc = tmp_path / "vocab.tsv"
    out = tmp_path / f"run-{encoder}"
    write_raw_pairs(raw)
    assert main(["preprocess", "--pairs", str(raw), "--out-pairs", str(tok),
                 "--out-vocab", str(voc), "--min-count", "1"]) == 0
    assert main(["train", "--pairs", str(tok), "--vocab", str(voc),
                 "--out-dir", str(out), "--encoder", encoder,
                 "--embed-dim", "4", "--hidden-dim", "5",
                 "--context-size", "2", "--conv-layers", "1",
                 "--window", "1", "--epochs", str(epochs),
                 "--batch-size", "4", "--lr", "0.05",
                 "--seed", str(seed)]) == 0
    return tok, voc, out


def save_toy_model(tmp_path, encoder="attention", seed=0):
    counts = collections.Counter(
        {"alpha": 9, "bravo": 8, "carol": 7, "delta": 6, "eagle": 5})
    vocab = Vocab.from_counts(counts, min_count=1)
    hyper = model.Hyperparams(vocab_size=len(vocab), embed_dim=3,
                              hidden_dim=4, context_size=2, encoder=encoder,
                              conv_layers=1, window=1)
    params = model.init_params(hyper, seed=seed)
    mpath = tmp_path / f"{encoder}.model"
    vpath = tmp_path / "toy-vocab.tsv"
    model.save_model(mpath, params, hyper)
    vocab.save(vpath)
    return mpath, vpath, params, hyper, vocab


# the command-line surface, recorded before decode, trace and tune came to
# share their flag definitions: per subcommand, each option's (required,
# default, choices, type, nargs)
REQUIRED = (True, None, None, None, None)
TEXT = (False, None, None, None, None)
N_FLAG = (True, None, None, int, None)
BEAM = (False, 8, None, int, None)
MODE = (False, "abstractive", ("abstractive", "extractive"), None, None)
BYTE_CAP = (False, None, None, int, None)
CLI_SURFACE = {
    "preprocess": {"--pairs": REQUIRED, "--out-pairs": REQUIRED,
                   "--out-vocab": REQUIRED,
                   "--min-count": (False, 5, None, int, None)},
    "train": {"--pairs": REQUIRED, "--vocab": REQUIRED,
              "--out-dir": REQUIRED, "--valid": TEXT,
              "--encoder": (False, "attention",
                            ("none", "bow", "conv", "attention"), None,
                            None),
              "--embed-dim": (False, 50, None, int, None),
              "--hidden-dim": (False, 100, None, int, None),
              "--context-size": (False, 5, None, int, None),
              "--conv-layers": (False, 3, None, int, None),
              "--window": (False, 2, None, int, None),
              "--epochs": (False, 15, None, int, None),
              "--lr": (False, 0.05, None, float, None),
              "--batch-size": (False, 64, None, int, None),
              "--max-norm": (False, 1.0, None, float, None),
              "--seed": (False, 0, None, int, None)},
    "decode": {"--model": REQUIRED, "--vocab": REQUIRED,
               "--input": REQUIRED, "--N": N_FLAG, "--beam": BEAM,
               "--mode": MODE, "--byte-cap": BYTE_CAP,
               "--allow-unk": (False, False, None, None, 0),
               "--weights": TEXT, "--trace": TEXT, "--out": TEXT},
    "trace": {"--model": REQUIRED, "--vocab": REQUIRED,
              "--input": REQUIRED, "--N": N_FLAG, "--beam": BEAM,
              "--mode": MODE, "--byte-cap": BYTE_CAP, "--out": REQUIRED},
    "tune": {"--model": REQUIRED, "--vocab": REQUIRED, "--dev": REQUIRED,
             "--refs": REQUIRED,
             "--metric": (False, "rouge1", ("rouge1", "rouge2", "rougeL"),
                          None, None),
             "--N": N_FLAG, "--beam": BEAM, "--mode": MODE,
             "--byte-cap": BYTE_CAP, "--seed": (False, 0, None, int, None),
             "--out": REQUIRED},
    "eval": {"--cand": REQUIRED, "--refs": REQUIRED,
             "--metrics": (False, "rouge1,rouge2,rougeL", None, None, None),
             "--byte-cap": BYTE_CAP, "--inputs": TEXT},
    "baseline": {"--input": REQUIRED,
                 "--byte-cap": (False, 75, None, int, None), "--out": TEXT},
    "describe": {"--model": REQUIRED},
}


def test_cli_surface_is_pinned():
    parser = _build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {
        name: {", ".join(a.option_strings):
               (a.required, a.default, a.choices, a.type, a.nargs)
               for a in command._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, command in sub.choices.items()}
    assert surface == CLI_SURFACE


def test_usage_and_version_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "model format" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["decode"]) == 1
    assert main(["no-such-command"]) == 1


def run_tool(command, **kwargs):
    """Run `command` in a subprocess that imports the `attnsum` under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(command, capture_output=True, text=True, env=env,
                          **kwargs)


def test_console_script_is_installed():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["attnsum"] == "attnsum.cli:main"
    # what the generated console-script wrapper runs
    module, _, func = scripts["attnsum"].partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", wrapper, "--version"],
                [sys.executable, "-m", "attnsum", "--version"]]
    installed = shutil.which("attnsum")
    if installed:
        commands.append([installed, "--version"])
    for command in commands:
        proc = run_tool(command)
        assert proc.returncode == 0, command
        assert "attnsum" in proc.stdout, command


def test_python_m_attnsum_passes_exit_codes_through():
    for args in ([], ["decode"]):
        proc = run_tool([sys.executable, "-m", "attnsum"] + args)
        assert proc.returncode == 1, args
        assert "usage: attnsum" in proc.stderr, args


def test_preprocess_counts_each_reason(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text(
        "alpha bravo\talpha bravo carol\n"       # kept
        "\talpha bravo\n"                        # empty headline
        "delta eagle\tfrost carol\n"             # no content overlap
        "-- alpha\talpha bravo\n"                # edit mark
        "alpha ?\talpha bravo carol\n",          # question mark
        encoding="utf-8")
    tok = tmp_path / "tok.tsv"
    voc = tmp_path / "vocab.tsv"
    assert main(["preprocess", "--pairs", str(raw), "--out-pairs", str(tok),
                 "--out-vocab", str(voc), "--min-count", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["kept 1", "empty 1", "filter1 1", "filter2 1",
                   "filter3 1", "vocab 6"]
    assert tok.read_text(encoding="utf-8") == \
        "alpha bravo\talpha bravo carol\n"


def test_failed_preprocess_keeps_the_earlier_pairs_file(tmp_path, capsys,
                                                        disk_full_after):
    raw = tmp_path / "raw.tsv"
    pairs = tmp_path / "pairs.tsv"
    args = ["preprocess", "--pairs", str(raw), "--out-pairs", str(pairs),
            "--out-vocab", str(tmp_path / "vocab.tsv"), "--min-count", "1"]
    write_raw_pairs(raw)
    assert main(args) == 0
    before = pairs.read_bytes()
    write_raw_pairs(raw, seed=1)
    disk_full_after(len(before) // 2)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert pairs.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["pairs.tsv", "raw.tsv",
                                            "vocab.tsv"]


def test_preprocess_empty_file(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("", encoding="utf-8")
    tok = tmp_path / "tok.tsv"
    voc = tmp_path / "vocab.tsv"
    assert main(["preprocess", "--pairs", str(raw), "--out-pairs", str(tok),
                 "--out-vocab", str(voc)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "kept 0" in out and "vocab 3" in out
    assert tok.read_text(encoding="utf-8") == ""


def test_train_writes_checkpoints_history_and_config(tmp_path, capsys):
    _, _, out = run_pipeline(tmp_path, epochs=2)
    printed = capsys.readouterr().out
    assert "epoch 1 " in printed and "epoch 2 " in printed
    assert (out / "epoch-001.model").exists()
    assert (out / "epoch-002.model").exists()
    assert (out / "final.model").exists()
    history = [json.loads(line) for line in
               (out / "history.jsonl").read_text().splitlines()]
    assert [h["epoch"] for h in history] == [1, 2]
    assert all(np.isfinite(h["valid_perplexity"]) for h in history)
    config = (out / "config.txt").read_text()
    assert "encoder=bow" in config and "seed=1" in config


def test_decode_matches_in_memory_search(tmp_path, capsys):
    tok, voc, out = run_pipeline(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo carol delta eagle\nfrost delta bravo\n",
                   encoding="utf-8")
    dec = tmp_path / "decoded.txt"
    assert main(["decode", "--model", str(out / "final.model"),
                 "--vocab", str(voc), "--input", str(inp), "--N", "3",
                 "--beam", "4", "--out", str(dec)]) == 0
    capsys.readouterr()
    params, hyper = model.load_model(out / "final.model")
    vocab = Vocab.load(voc)
    config = DecodeConfig(length=3, beam=4)
    want = []
    for line in inp.read_text().splitlines():
        scorer = model.Scorer(params, hyper, vocab.encode(line.split()))
        want.append(finalize(beam_search(scorer, config)[0], config, vocab))
    assert dec.read_text(encoding="utf-8").splitlines() == want


@pytest.mark.parametrize("encoder", model.ENCODERS)
def test_decode_equals_each_line_decoded_alone(tmp_path, capsys, encoder):
    """`decode` steps its lines in lockstep; its output is byte-identical
    to a beam_search of each line alone, plain and under --weights, over
    lines of ragged lengths, some of equal length, so that some share
    their steps."""
    mpath, vpath, params, hyper, vocab = save_toy_model(tmp_path, encoder)
    words = ["alpha", "bravo", "carol", "delta", "eagle", "zulu"]
    rng = np.random.default_rng(8)
    lines = [" ".join(rng.choice(words, size=n))
             for n in (5, 3, 5, 1, 5, 7, 3, 5)]
    inp = tmp_path / "input.txt"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    wpath = tmp_path / "weights.json"
    weights = FeatureWeights([0.7, 0.4, -0.3, 0.2, 0.1])
    weights.save(wpath)
    for mode in ("abstractive", "extractive"):
        config = DecodeConfig(length=4, beam=3, mode=mode)
        for extra, tuned in (([], None), (["--weights", str(wpath)],
                                          weights)):
            dec = tmp_path / "decoded.txt"
            assert main(["decode", "--model", str(mpath), "--vocab",
                         str(vpath), "--input", str(inp), "--N", "4",
                         "--beam", "3", "--mode", mode, "--out", str(dec)]
                        + extra) == 0
            capsys.readouterr()
            want = []
            for line in lines:
                scorer = model.Scorer(params, hyper,
                                      vocab.encode(line.split()))
                if tuned is not None:
                    scorer = TunedScorer(scorer, tuned)
                want.append(finalize(beam_search(scorer, config)[0], config,
                                     vocab) + "\n")
            assert dec.read_bytes() == "".join(want).encode("utf-8")


def test_decode_is_deterministic_and_parallel_safe(tmp_path, capsys):
    _, voc, out = run_pipeline(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo carol\ncarol delta eagle frost\n" * 3,
                   encoding="utf-8")
    outs = []
    for run in range(3):
        dec = tmp_path / f"dec-{run}.txt"
        assert main(["decode", "--model", str(out / "final.model"),
                     "--vocab", str(voc), "--input", str(inp), "--N", "3",
                     "--beam", "4", "--out", str(dec)]) == 0
        outs.append(dec.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    capsys.readouterr()


def test_decode_reports_empty_line(tmp_path, capsys):
    mpath, vpath, *_ = save_toy_model(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo\n\ncarol\n", encoding="utf-8")
    assert main(["decode", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2"]) == 2
    assert capsys.readouterr().err == f"error: {inp}:2: empty line\n"


@pytest.mark.parametrize("command,flag", [("decode", "--beam"),
                                          ("trace", "--N"),
                                          ("tune", "--beam")])
def test_bad_decode_flag_is_refused_on_empty_input(tmp_path, capsys,
                                                   command, flag):
    mpath, vpath, *_ = save_toy_model(tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    values = {"--N": "2", "--beam": "2", flag: "0"}
    files = (["--dev", str(empty), "--refs", str(empty)]
             if command == "tune" else ["--input", str(empty)])
    assert main([command, "--model", str(mpath), "--vocab", str(vpath),
                 "--out", str(out)] + files
                + [arg for item in values.items() for arg in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1" in err
    assert not out.exists()


# U+2028, U+0085 and a form feed end no line: they are spaces within one
SEPARATED = "alpha\u2028bravo carol\nDelta\u0085eagle\x0calpha\n"


def test_only_newlines_end_a_line(tmp_path, capsys):
    mpath, vpath, *_ = save_toy_model(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text(SEPARATED, encoding="utf-8")
    dec = tmp_path / "decoded.txt"
    base = tmp_path / "base.txt"
    assert main(["decode", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2", "--out", str(dec)]) == 0
    assert main(["baseline", "--input", str(inp), "--out", str(base)]) == 0
    assert base.read_bytes() == b"alpha bravo carol\ndelta eagle alpha\n"
    assert dec.read_bytes().count(b"\n") == 2
    capsys.readouterr()
    for cand in (dec, base):
        assert main(["eval", "--cand", str(cand), "--refs", str(inp)]) == 0
        assert '"instances": 2' in capsys.readouterr().out


def test_decode_rejects_mismatched_vocab(tmp_path, capsys):
    mpath, _, *_ = save_toy_model(tmp_path)
    small = Vocab.from_counts(collections.Counter({"alpha": 5}),
                              min_count=1)
    vpath = tmp_path / "small-vocab.tsv"
    small.save(vpath)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha\n", encoding="utf-8")
    assert main(["decode", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2"]) == 2
    assert "expects" in capsys.readouterr().err


def test_missing_model_file_is_a_data_error(tmp_path, capsys):
    _, vpath, *_ = save_toy_model(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha\n", encoding="utf-8")
    assert main(["decode", "--model", str(tmp_path / "nope.model"),
                 "--vocab", str(vpath), "--input", str(inp),
                 "--N", "2"]) == 2
    capsys.readouterr()


def test_divergent_training_exit_code(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    tok = tmp_path / "tok.tsv"
    voc = tmp_path / "vocab.tsv"
    write_raw_pairs(raw)
    assert main(["preprocess", "--pairs", str(raw), "--out-pairs", str(tok),
                 "--out-vocab", str(voc), "--min-count", "1"]) == 0
    assert main(["train", "--pairs", str(tok), "--vocab", str(voc),
                 "--out-dir", str(tmp_path / "run"), "--encoder", "bow",
                 "--embed-dim", "4", "--hidden-dim", "5",
                 "--context-size", "2", "--epochs", "2",
                 "--lr", "1e200", "--batch-size", "4"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--max-norm", "nan"),
                                        ("--max-norm", "0"),
                                        ("--lr", "nan"), ("--lr", "inf"),
                                        ("--seed", "-1")])
def test_non_finite_training_settings_are_a_data_error(tmp_path, capsys,
                                                       flag, value):
    raw = tmp_path / "raw.tsv"
    tok = tmp_path / "tok.tsv"
    voc = tmp_path / "vocab.tsv"
    write_raw_pairs(raw)
    assert main(["preprocess", "--pairs", str(raw), "--out-pairs", str(tok),
                 "--out-vocab", str(voc), "--min-count", "1"]) == 0
    run = tmp_path / "run"
    run.mkdir()
    (run / "history.jsonl").write_text("earlier run\n", encoding="utf-8")
    assert main(["train", "--pairs", str(tok), "--vocab", str(voc),
                 "--out-dir", str(run), "--encoder", "bow",
                 "--embed-dim", "4", "--hidden-dim", "5",
                 "--context-size", "2", "--epochs", "2",
                 "--batch-size", "4", flag, value]) == 2
    assert "error" in capsys.readouterr().err
    # rejected before the output directory is touched: an earlier run's
    # history stays, and no checkpoint is written
    assert (run / "history.jsonl").read_text(encoding="utf-8") == \
        "earlier run\n"
    assert not list(run.glob("*.model"))


def test_trace_rows_match_attention_replay(tmp_path, capsys):
    mpath, vpath, params, hyper, vocab = save_toy_model(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo carol delta\n", encoding="utf-8")
    tsv = tmp_path / "trace.tsv"
    assert main(["trace", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "3", "--beam", "2",
                 "--out", str(tsv)]) == 0
    capsys.readouterr()
    lines = tsv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# sentence 1"
    rows = np.array([[float(v) for v in line.split("\t")]
                     for line in lines[1:]])
    assert rows.shape == (3, 4)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    x = vocab.encode(["alpha", "bravo", "carol", "delta"])
    config = DecodeConfig(length=3, beam=2)
    best = beam_search(model.Scorer(params, hyper, x), config)[0]
    replay = model.attention_trace(params, hyper, x, list(best.tokens))
    assert np.array_equal(rows, replay)  # %.17g round-trips float64


def test_trace_single_word_input_is_all_ones(tmp_path, capsys):
    mpath, vpath, *_ = save_toy_model(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("alpha\n", encoding="utf-8")
    tsv = tmp_path / "trace.tsv"
    assert main(["trace", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2", "--out", str(tsv)]) == 0
    capsys.readouterr()
    rows = [line for line in tsv.read_text().splitlines()
            if not line.startswith("#")]
    assert rows == ["1", "1"]


def test_trace_requires_attention_encoder(tmp_path, capsys):
    mpath, vpath, *_ = save_toy_model(tmp_path, encoder="bow")
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo\n", encoding="utf-8")
    tsv = tmp_path / "trace.tsv"
    assert main(["trace", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2", "--out", str(tsv)]) == 2
    assert "attention" in capsys.readouterr().err
    assert main(["decode", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(inp), "--N", "2",
                 "--trace", str(tsv)]) == 2
    capsys.readouterr()


def test_eval_prints_text_and_json(tmp_path, capsys):
    cand = tmp_path / "cand.txt"
    refs = tmp_path / "refs.txt"
    src = tmp_path / "src.txt"
    cand.write_text("alpha bravo\ncarol delta\n", encoding="utf-8")
    refs.write_text("alpha bravo\ncarol eagle\n", encoding="utf-8")
    src.write_text("alpha bravo carol\ncarol delta eagle\n",
                   encoding="utf-8")
    assert main(["eval", "--cand", str(cand), "--refs", str(refs),
                 "--metrics", "rouge1,rougeL", "--inputs", str(src)]) == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads(out[-1])
    assert report["rouge1"] == pytest.approx((1.0 + 0.5) / 2)
    assert report["ext_pct"] == 100.0
    assert any(line.startswith("rouge1") for line in out)
    assert main(["eval", "--cand", str(cand), "--refs", str(refs),
                 "--metrics", "bleu"]) == 2
    capsys.readouterr()


def test_baseline_whole_token_prefix(tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo carol\n"
                   "alpha bravo carol\n"
                   f"{'a' * 20} bravo\n", encoding="utf-8")
    out = tmp_path / "base.txt"
    assert main(["baseline", "--input", str(inp), "--byte-cap", "11",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha bravo"
    assert lines[1] == "alpha bravo"
    assert lines[2] == "a" * 11  # over-long first token: plain byte cut
    assert all(len(line.encode("utf-8")) <= 11 for line in lines)


def test_baseline_tokens_always_come_from_input(tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("the market fell sharply today\nbravo delta eagle\n",
                   encoding="utf-8")
    out = tmp_path / "base.txt"
    assert main(["baseline", "--input", str(inp), "--byte-cap", "75",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for got, src in zip(out.read_text().splitlines(),
                        inp.read_text().splitlines()):
        assert got == src  # shorter than the cap: unchanged
        assert set(got.split()) <= set(src.split())


@pytest.mark.parametrize("command", ["baseline", "eval", "decode", "trace",
                                     "tune"])
@pytest.mark.parametrize("cap", ["0", "-1", "-5"])
def test_byte_cap_below_one_is_a_data_error(tmp_path, capsys, command, cap):
    # refused before any input is read, so an empty input changes nothing
    mpath, vpath, *_ = save_toy_model(tmp_path)
    model_args = ["--model", str(mpath), "--vocab", str(vpath), "--N", "2"]
    out = tmp_path / "out.txt"
    for content in ("Markets fall sharply in Asia today\n", ""):
        text = tmp_path / "text.txt"
        text.write_text(content, encoding="utf-8")
        args = {"baseline": ["--input", str(text), "--out", str(out)],
                "eval": ["--cand", str(text), "--refs", str(text)],
                "decode": model_args + ["--input", str(text), "--out",
                                        str(out)],
                "trace": model_args + ["--input", str(text), "--out",
                                       str(out)],
                "tune": model_args + ["--dev", str(text), "--refs",
                                      str(text), "--out", str(out)],
                }[command]
        assert main([command] + args + ["--byte-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: byte cap must be at least 1, got {cap}\n"
        assert not out.exists()


GOOD_VOCAB = "<unk>\t0\n<s>\t0\n<pad>\t0\nalpha\t3\nbravo\t2\n"
GOOD_PAIRS = "alpha\talpha bravo\n"


@pytest.mark.parametrize("vocab_text, pairs_text, bad, message", [
    (GOOD_VOCAB.replace("bravo\t2", "bravo\tx"), GOOD_PAIRS, "vocab",
     "5: invalid literal for int() with base 10: 'x'"),
    (GOOD_VOCAB + "\nalpha\t1\n", GOOD_PAIRS, "vocab",
     "7: duplicate token 'alpha'"),
    ("\n" + GOOD_VOCAB.replace("<s>", "<S>"), GOOD_PAIRS, "vocab",
     "3: reserved symbols must occupy ids 0..2"),
    (GOOD_VOCAB, GOOD_PAIRS + "\tfoo bar\n", "pairs",
     "2: empty side in pair"),
], ids=["count", "duplicate", "reserved", "empty side"])
def test_tsv_refusal_names_file_and_line(tmp_path, capsys, vocab_text,
                                         pairs_text, bad, message):
    files = {"vocab": tmp_path / "vocab.tsv", "pairs": tmp_path / "pairs.tsv"}
    files["vocab"].write_text(vocab_text, encoding="utf-8")
    files["pairs"].write_text(pairs_text, encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--pairs", str(files["pairs"]), "--vocab",
                 str(files["vocab"]), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {files[bad]}:{message}\n"
    assert not out_dir.exists()


def test_describe_prints_header(tmp_path, capsys):
    mpath, *_ = save_toy_model(tmp_path)
    assert main(["describe", "--model", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "format_version 1" in out
    assert "encoder attention" in out
    assert "vocab_size 8" in out
    assert "E 3x8" in out


def _damage_model(data, damage):
    if damage == "trailing bytes":
        return data + b"\x00" * 8
    if damage == "truncated payload":
        return data[:-8]  # inside the last tensor's payload
    if damage.startswith("huge"):
        # a conv model: conv_layers follows the magic, version, encoder
        # name, V, D, H and C, and the tensor count follows the window
        at = 12 + len(b"conv") + 16
        layers = 2 ** 32 - 1 if damage == "huge conv_layers" else 10 ** 7
        data = data[:at] + struct.pack("<I", layers) + data[at + 4:]
        if damage == "huge tensor count":
            data = data[:at + 8] + struct.pack("<I", 8 + layers) + \
                data[at + 12:]
        return data
    # hidden_dim follows the magic, version, encoder name, V and D
    at = 12 + len(b"attention") + 8
    return data[:at] + struct.pack("<I", 2 ** 30) + data[at + 4:]


def _limit_memory():
    # a loader that builds what a hostile header asks for fails here
    # (MemoryError) instead of exhausting the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("damage, message", [
    ("trailing bytes", "trailing bytes"),
    ("truncated payload", "truncated"),
    ("header contradicts tensors", "tensor F has shape (4, 8)"),
    ("huge conv_layers", "model file tensors do not match its hyperparams"),
    ("huge tensor count", "truncated model file"),
])
def test_malformed_model_file_is_a_data_error(tmp_path, damage, message):
    encoder = "conv" if damage.startswith("huge") else "attention"
    mpath, vpath, *_ = save_toy_model(tmp_path, encoder)
    mpath.write_bytes(_damage_model(mpath.read_bytes(), damage))
    inp = tmp_path / "input.txt"
    inp.write_text("alpha bravo\n", encoding="utf-8")
    for args in (["decode", "--model", str(mpath), "--vocab", str(vpath),
                  "--input", str(inp), "--N", "2"],
                 ["describe", "--model", str(mpath)]):
        proc = run_tool([sys.executable, "-m", "attnsum"] + args,
                        preexec_fn=_limit_memory)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith(f"error: {mpath}: {message}"), args
        assert proc.stderr.count("\n") == 1, args


def biased_model_files(tmp_path):
    counts = collections.Counter({"a": 10, "b": 9, "c": 8, "d": 7, "e": 6})
    vocab = Vocab.from_counts(counts, min_count=1)
    hyper = model.Hyperparams(vocab_size=len(vocab), embed_dim=2,
                              hidden_dim=2, context_size=2, encoder="none")
    params = model.init_params(hyper, seed=0)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    params["b_V"] = np.array([-50.0, -50.0, -50.0, 0.4, 0.3, 0.2, -5.0,
                              0.5])
    mpath = tmp_path / "biased.model"
    vpath = tmp_path / "letters.tsv"
    model.save_model(mpath, params, hyper)
    vocab.save(vpath)
    return mpath, vpath


def test_tune_writes_named_weights(tmp_path, capsys):
    mpath, vpath = biased_model_files(tmp_path)
    dev = tmp_path / "dev.txt"
    refs = tmp_path / "refs.txt"
    dev.write_text("a b c\n", encoding="utf-8")
    refs.write_text("a b c\n", encoding="utf-8")
    wpath = tmp_path / "weights.json"
    assert main(["tune", "--model", str(mpath), "--vocab", str(vpath),
                 "--dev", str(dev), "--refs", str(refs), "--N", "3",
                 "--beam", "8", "--out", str(wpath)]) == 0
    out = capsys.readouterr().out
    assert "identity 0.000000 tuned 1.000000" in out
    weights = json.loads(wpath.read_text(encoding="utf-8"))
    assert set(weights) == {"log_prob", "unigram", "bigram", "trigram",
                            "reorder"}
    # the tuned weights drive the decoder through the weights flag
    dec = tmp_path / "dec.txt"
    assert main(["decode", "--model", str(mpath), "--vocab", str(vpath),
                 "--input", str(dev), "--N", "3", "--beam", "8",
                 "--weights", str(wpath), "--out", str(dec)]) == 0
    capsys.readouterr()
    assert dec.read_text(encoding="utf-8") == "a b c\n"


WEIGHTS = ('"log_prob": 1.0, "unigram": 0.0, "bigram": 0.0, '
           '"trigram": 0.0')


@pytest.mark.parametrize("text", [
    "[1, 2, 3, 4, 5]",
    '"abc"',
    "null",
    '{"log_prob": true, "unigram": true, "bigram": true, '
    '"trigram": true, "reorder": true}',
    "{" + WEIGHTS + ', "reorder": null}',
    "{" + WEIGHTS + ', "reorder": "0.5"}',
    "{" + WEIGHTS + ', "reorder": [0.5]}',
    "{" + WEIGHTS + ', "reorder": 1' + "0" * 400 + "}",
    "{" + WEIGHTS + "}",
    "{" + WEIGHTS + ', "reorder": 0.0, "length": 0.0}',
    "{" + WEIGHTS + ', "reorder": NaN}',
    "{" + WEIGHTS,
    "[" * 100000,
], ids=["list", "string", "null", "bools", "null value", "string value",
        "list value", "huge int", "missing name", "extra name", "nan",
        "not json", "deeply nested"])
def test_malformed_weights_file_is_a_data_error(tmp_path, text):
    mpath, vpath = biased_model_files(tmp_path)
    inp = tmp_path / "input.txt"
    inp.write_text("a b c\n", encoding="utf-8")
    wpath = tmp_path / "weights.json"
    wpath.write_text(text, encoding="utf-8")
    proc = run_tool([sys.executable, "-m", "attnsum", "decode",
                     "--model", str(mpath), "--vocab", str(vpath),
                     "--input", str(inp), "--N", "3",
                     "--weights", str(wpath)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_tune_reports_each_file_own_line(tmp_path, capsys):
    mpath, vpath = biased_model_files(tmp_path)
    dev = tmp_path / "dev.txt"
    refs = tmp_path / "refs.txt"
    tune = ["tune", "--model", str(mpath), "--vocab", str(vpath),
            "--dev", str(dev), "--refs", str(refs), "--N", "3",
            "--out", str(tmp_path / "w.json")]
    dev.write_text("a\u2028b c\n", encoding="utf-8")
    refs.write_text("a b\x0cc\n", encoding="utf-8")
    assert main(tune) == 0
    assert "tuned 1.000000" in capsys.readouterr().out
    for dev_text, refs_text, bad, line in [
            ("a\u2028b\x0cc\na b\n\n", "a b c\na b\nc\n", dev, 3),
            ("a b c\na b\n", "a\u0085b c\n\u2028\n", refs, 2)]:
        dev.write_text(dev_text, encoding="utf-8")
        refs.write_text(refs_text, encoding="utf-8")
        assert main(tune) == 2
        assert capsys.readouterr().err == f"error: {bad}:{line}: empty line\n"


NOT_UTF8 = "not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("command, flag, data, reason", [
    ("decode", "--input", b"alpha \xff bravo\n", NOT_UTF8),
    ("tune", "--dev", b"alpha \xff bravo\n", NOT_UTF8),
    ("baseline", "--input", b"alpha \xff bravo\n", NOT_UTF8),
    ("eval", "--inputs", b"alpha \xff bravo\n", NOT_UTF8),
    ("decode", "--weights", b"{", "Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    ("decode", "--weights", b"{\xff}", NOT_UTF8),
    ("decode", "--model", None, "non-finite values in tensor"),
    ("tune", "--dev", b"", "dev set is empty"),
    ("eval", "--cand", b"", "no instances to score"),
], ids=["decode input", "tune dev", "baseline input", "eval inputs",
        "weights not json", "weights not utf-8", "model nan",
        "tune dev empty", "eval cand empty"])
def test_refusal_names_the_bad_file(tmp_path, capsys, command, flag, data,
                                    reason):
    # every other file the command reads is good
    mpath, vpath, *_ = save_toy_model(tmp_path)
    text = tmp_path / "text.txt"
    text.write_text("alpha bravo\n", encoding="utf-8")
    weights = tmp_path / "weights.json"
    FeatureWeights.identity().save(weights)
    bad = tmp_path / "bad"
    # a NaN in place of the model file's last payload float
    bad.write_bytes(data if data is not None else
                    mpath.read_bytes()[:-8] + struct.pack("<d", np.nan))
    decoding = {"--model": mpath, "--vocab": vpath, "--N": 2}
    files = {"decode": {**decoding, "--input": text, "--weights": weights},
             "tune": {**decoding, "--dev": text, "--refs": text,
                      "--out": tmp_path / "out.json"},
             "baseline": {"--input": text},
             "eval": {"--cand": text, "--refs": text, "--inputs": text},
             }[command]
    files[flag] = bad
    argv = [command] + [str(v) for pair in files.items() for v in pair]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {reason}\n"


def test_tune_empty_dev_set_is_a_data_error(tmp_path, capsys):
    mpath, vpath = biased_model_files(tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    wpath = tmp_path / "weights.json"
    assert main(["tune", "--model", str(mpath), "--vocab", str(vpath),
                 "--dev", str(empty), "--refs", str(empty), "--N", "3",
                 "--out", str(wpath)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: dev set is empty\n"
    assert not wpath.exists()


def test_tune_negative_seed_is_refused_before_decoding(tmp_path, capsys,
                                                       monkeypatch):
    search = tuning.lockstep_search
    calls = collections.Counter()

    def counting_search(scorers, config, step_hook=None):
        scorers = list(scorers)
        calls["decodes"] += len(scorers)
        return search(scorers, config, step_hook=step_hook)

    monkeypatch.setattr(tuning, "lockstep_search", counting_search)
    mpath, vpath = biased_model_files(tmp_path)
    dev = tmp_path / "dev.txt"
    dev.write_text("a b c\n", encoding="utf-8")
    wpath = tmp_path / "weights.json"
    assert main(["tune", "--model", str(mpath), "--vocab", str(vpath),
                 "--dev", str(dev), "--refs", str(dev), "--N", "3",
                 "--seed", "-1", "--out", str(wpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative\n"
    assert calls["decodes"] == 0
    assert not wpath.exists()


def test_tune_decodes_each_weight_vector_once(tmp_path, capsys,
                                              monkeypatch):
    search, line_search = tuning.lockstep_search, tuning._line_search
    calls = collections.Counter()

    def counting_search(scorers, config, step_hook=None):
        scorers = list(scorers)
        calls["decodes"] += len(scorers)
        return search(scorers, config, step_hook=step_hook)

    def counting_line_search(lists, alpha, direction):
        gamma, obj = line_search(lists, alpha, direction)
        calls["moves"] += gamma != 0.0
        return gamma, obj

    monkeypatch.setattr(tuning, "lockstep_search", counting_search)
    monkeypatch.setattr(tuning, "_line_search", counting_line_search)
    mpath, vpath = biased_model_files(tmp_path)
    dev = tmp_path / "dev.txt"
    refs = tmp_path / "refs.txt"
    dev.write_text("a b c\nc a b d\nb d\n", encoding="utf-8")
    refs.write_text("a b c\nc a\nb d\n", encoding="utf-8")
    assert main(["tune", "--model", str(mpath), "--vocab", str(vpath),
                 "--dev", str(dev), "--refs", str(refs), "--N", "3",
                 "--out", str(tmp_path / "w.json")]) == 0
    capsys.readouterr()
    assert calls["moves"] > 0
    assert calls["decodes"] == 3 * (1 + calls["moves"])


@pytest.mark.parametrize("valid", [False, True])
def test_train_on_no_pairs_keeps_the_earlier_run(tmp_path, capsys, valid):
    _, vpath, *_ = save_toy_model(tmp_path)
    good = tmp_path / "good.tsv"
    good.write_text("alpha bravo\talpha bravo carol\n", encoding="utf-8")
    blank = tmp_path / "blank.tsv"
    blank.write_text("\n\n", encoding="utf-8")
    out = tmp_path / "run"
    out.mkdir()
    (out / "history.jsonl").write_text('{"epoch": 1}\n', encoding="utf-8")
    argv = ["train", "--vocab", str(vpath), "--out-dir", str(out),
            "--embed-dim", "2", "--hidden-dim", "2", "--epochs", "1"]
    argv += (["--pairs", str(good), "--valid", str(blank)] if valid
             else ["--pairs", str(blank)])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {blank}: holds no pairs\n"
    assert (out / "history.jsonl").read_text(encoding="utf-8") == \
        '{"epoch": 1}\n'
    assert list(out.glob("*.model")) == []


@pytest.mark.parametrize("refs, metrics, reason", [
    (["a b\n\n"], "rouge1", "every reference is shorter than n=1"),
    (["a b\n\n"], "rougeL", "every reference is empty"),
    (["a b\nc\n"], "rouge1,rouge2", "every reference is shorter than n=2"),
    (["a b\nc\n", "a\n\n"], "rouge2",
     "every reference is shorter than n=2"),
], ids=["blank ref", "blank ref rougeL", "one-token ref", "two refs files"])
def test_eval_refusal_names_refs_and_line(tmp_path, capsys, refs, metrics,
                                          reason):
    cand = tmp_path / "cand.txt"
    cand.write_text("a b\nc\n", encoding="utf-8")
    paths = []
    for k, text in enumerate(refs):
        paths.append(tmp_path / f"refs{k}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    # several files are named as given, comma-joined
    refs_flag = ",".join(map(str, paths))
    assert main(["eval", "--cand", str(cand), "--refs", refs_flag,
                 "--metrics", metrics]) == 2
    assert capsys.readouterr().err == f"error: {refs_flag}:2: {reason}\n"


def test_tune_rejects_misaligned_refs(tmp_path, capsys):
    mpath, vpath = biased_model_files(tmp_path)
    dev = tmp_path / "dev.txt"
    refs = tmp_path / "refs.txt"
    dev.write_text("a b c\n", encoding="utf-8")
    refs.write_text("a b c\nd e\n", encoding="utf-8")
    assert main(["tune", "--model", str(mpath), "--vocab", str(vpath),
                 "--dev", str(dev), "--refs", str(refs), "--N", "3",
                 "--out", str(tmp_path / "w.json")]) == 2
    assert "line 2" in capsys.readouterr().err
