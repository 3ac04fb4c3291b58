"""Tests of the benchmark itself: seeded inputs, self-time arithmetic, the
tracing wrappers, agreement with BENCHMARK.json, and a toy-size run of every
workload through both the untraced and the traced measurement."""

import json
import os
import sys

import numpy as np
import pytest

import inputs
import run
import spans

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (needs the program on the path)
from attnsum.corpus import preprocess  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_generators_are_deterministic_per_seed():
    words = inputs.word_list(50)
    for make in (
            lambda s: inputs.jump_walk_pairs(20, 40, 14, 8, s, 0.45),
            lambda s: inputs.zipf_lines(words, 10, 15, 40, s),
            lambda s: inputs.tune_dev(words, 5, 14, 8, s, 0.45)):
        first, again, other = make(7), make(7), make(8)
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)
    assert inputs.sub_seed(3, 1) == inputs.sub_seed(3, 1)
    assert len({inputs.sub_seed(3, k) for k in range(5)}) == 5


def test_generated_text_survives_preprocessing():
    words = inputs.word_list(800)
    assert len(set(words)) == 800
    assert preprocess(" ".join(words)) == words
    for line in inputs.zipf_lines(words, 5, 15, 40, seed=1):
        tokens = preprocess(line)
        assert 16 <= len(tokens) <= 41 and tokens[-1] == "."
        assert set(tokens[:-1]) <= set(words)


def test_jump_walk_headline_copies_article_prefix():
    for x, y in inputs.jump_walk_pairs(30, 40, 14, 8, seed=2, p_jump=0.45):
        assert x.shape == (14,) and np.array_equal(y, x[:8])
        assert x.min() >= inputs.N_RESERVED and x.max() < 40


def test_train_corpus_reads_back_as_the_generated_ids(tmp_path):
    wl = workloads.make("train-copy", toy=True)
    s = wl.shape
    state = wl.setup(wl.prepare(3, tmp_path))
    generated = inputs.jump_walk_pairs(
        s["train_pairs"], s["vocab"], s["article_len"], s["head_len"],
        inputs.sub_seed(3, workloads._TRAIN), s["p_jump"])
    assert [(x.tolist(), y.tolist()) for x, y in generated] == state["train"]


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["d", 6.5, 8.0, 2, 0],  # overlaps its sibling c
        ["e", 8.5, 12.0, 2, 0],  # runs past its parent's end
        ["root", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10 - 3 - 4, 3, 4 - 2 - 0.5, 1, 1.5, 3.5, 1])
    table = spans.aggregate(tree)
    assert table["root"] == pytest.approx(
        {"calls": 2, "total": 11.0, "self": 4.0})
    only_first = spans.aggregate(tree, ["x", "y"], "x")
    assert only_first["root"] == pytest.approx(
        {"calls": 1, "total": 10.0, "self": 3.0})


def test_tracer_records_parents_and_restores_the_program():
    from attnsum import model, training, tuning

    before = (model.forward, training.backward, tuning.beam_search,
              model.Scorer.__dict__["step_scores"])
    tracer = spans.Tracer()
    tracer.begin_op("only")
    with tracer.installed():
        assert model.forward is not before[0]
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    after = (model.forward, training.backward, tuning.beam_search,
             model.Scorer.__dict__["step_scores"])
    assert after == before
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0)]


def test_tail_leaves_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0, 10)
    assert run.tail(values[:19]) == (19, 100.0, 0)


def test_p90_interpolates_and_takes_a_single_sample():
    assert run.p90(list(range(1, 11))) == pytest.approx(9.9)
    assert run.p90([0.5]) == 0.5


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_toy_workload_runs_clean_and_reports_every_metric(name, tmp_path):
    wl = workloads.make(name, toy=True)
    metrics, attempted, failures, _ = run.measure(wl, 0, 0.05, tmp_path)
    assert failures == [] and attempted >= 1
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())

    traced, attempted, failures, _ = run.measure_traced(
        wl, 0, 0.1, tmp_path, tmp_path / "spans.jsonl")
    assert failures == [] and attempted >= 1
    assert sorted(traced) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == u for k, (_, u) in traced.items())
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_benchmark_json_workloads_match_their_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.make(w["name"]).why
