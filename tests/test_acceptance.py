"""End-to-end acceptance suite: one test per release criterion, each printing
a single PASS/FAIL verdict line with the measured numbers.

The criteria cover gradient fidelity, distribution sanity, decoder exactness,
beam-search properties, single-pair learnability, the held-out encoder
quality ordering on a synthetic copy corpus, re-ranking identity and tuning
guarantees, the evaluation-metric oracle, and bytewise reproducibility of the
whole pipeline.
"""

import collections
import contextlib
import io
import itertools
import os
import time

import numpy as np
import pytest

from attnsum import model
from attnsum.cli import _prefix_line, main
from attnsum.corpus import START_ID, Vocab, preprocess
from attnsum.decoding import (DecodeConfig, beam_search, greedy,
                              viterbi_exact)
from attnsum.model import (ENCODERS, Hyperparams, Scorer, attention_trace,
                           backward, cond_dist, init_params, loss, make_batch)
from attnsum.numerics import finite_diff_grad, relative_grad_error
from attnsum.rouge import (EvalInstance, extractive_pct, instance_score,
                           rouge_l, rouge_n)
from attnsum.training import (TrainConfig, nll, perplexity, token_count,
                              train)
from attnsum.tuning import (FeatureWeights, TunedScorer, dev_score,
                            mert_tune)


def _verdict(number, ok, detail):
    """One visible pass/fail line per criterion; assert carries the detail."""
    word = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {word} ({detail})"
    print(line)
    assert ok, line


# --- 1: analytic gradients match central finite differences -----------------

def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    seeds_used = 0
    for k, encoder in enumerate(ENCODERS):
        hyper = Hyperparams(vocab_size=20, embed_dim=4, hidden_dim=6,
                            context_size=2, encoder=encoder,
                            conv_layers=2, window=1)
        for rep in range(5):
            seed = 1000 + 10 * k + rep
            rng = np.random.default_rng(seed)
            params = init_params(hyper, seed)
            pair = (rng.integers(0, 20, size=7), rng.integers(0, 20, size=5))
            batch = make_batch([pair], hyper)
            params.zero_grads()
            backward(params, hyper, batch)
            numeric = finite_diff_grad(lambda p: loss(p, hyper, batch),
                                       params)
            for name in params.names():
                err = relative_grad_error(params.grad(name), numeric[name])
                worst = max(worst, err)
            seeds_used += 1
    elapsed = time.monotonic() - started
    _verdict(1, worst < 1e-4 and seeds_used >= 20 and elapsed < 60.0,
             f"max rel err {worst:.3g} over {seeds_used} seeds, "
             f"{elapsed:.1f}s")


# --- 2: probability outputs are normalized ----------------------------------

def test_criterion_2_distribution_sanity():
    rng = np.random.default_rng(42)
    worst_dist = worst_attn = 0.0
    cases = 1000
    for case in range(cases):
        encoder = ENCODERS[case % len(ENCODERS)]
        hyper = Hyperparams(vocab_size=int(rng.integers(5, 26)),
                            embed_dim=int(rng.integers(2, 9)),
                            hidden_dim=int(rng.integers(2, 11)),
                            context_size=int(rng.integers(1, 4)),
                            encoder=encoder,
                            conv_layers=int(rng.integers(1, 3)),
                            window=int(rng.integers(1, 3)))
        params = init_params(hyper, int(rng.integers(0, 10000)))
        for name in params.names():
            params[name] = params[name] * rng.uniform(0.5, 4.0)
        v = hyper.vocab_size
        x = rng.integers(0, v, size=int(rng.integers(2, 10)))
        y_c = rng.integers(0, v, size=hyper.context_size)
        dist = cond_dist(params, hyper, x, y_c)
        worst_dist = max(worst_dist, abs(float(dist.sum()) - 1.0))
        if encoder == "attention":
            y = rng.integers(0, v, size=int(rng.integers(1, 5)))
            rows = attention_trace(params, hyper, x, y).sum(axis=1)
            worst_attn = max(worst_attn, float(np.abs(rows - 1.0).max()))
    _verdict(2, worst_dist < 1e-9 and worst_attn < 1e-9,
             f"{cases} cases, |sum-1| dist {worst_dist:.2g} "
             f"attn {worst_attn:.2g}")


# --- 3: full-width beam and exact DP agree with brute force ------------------

def _enumerate_best(params, hyper, x, config):
    """Brute-force argmax over every candidate sequence; ties prefer the
    lexicographically smaller token tuple, matching the decoders."""
    if config.mode == "extractive":
        pool = sorted({int(t) for t in x})
    else:
        pool = list(range(hyper.vocab_size))
    banned = {1, 2} | ({0} if config.forbid_unk else set())
    cands = [i for i in pool if i not in banned]
    cache = {}
    best = None
    start = (START_ID,) * hyper.context_size
    for seq in itertools.product(cands, repeat=config.length):
        ctx = start
        score = 0.0
        for t in seq:
            if ctx not in cache:
                cache[ctx] = np.log(cond_dist(params, hyper, x, list(ctx)))
            score += float(cache[ctx][t])
            ctx = ctx[1:] + (t,)
        if best is None or score > best[0] or \
                (score == best[0] and seq < best[1]):
            best = (score, seq)
    return best


def test_criterion_3_decoder_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    models = 50
    worst_beam = worst_vit = 0.0
    for case in range(models):
        encoder = ENCODERS[case % len(ENCODERS)]
        v = int(rng.integers(6, 16))
        hyper = Hyperparams(vocab_size=v, embed_dim=3, hidden_dim=4,
                            context_size=2, encoder=encoder,
                            conv_layers=1, window=1)
        params = init_params(hyper, int(rng.integers(0, 10000)))
        x = rng.integers(3, v, size=int(rng.integers(3, 9)))
        config = DecodeConfig(length=int(rng.integers(1, 5)),
                              beam=v ** 2,
                              mode="extractive" if case % 3 == 0
                              else "abstractive",
                              forbid_unk=bool(case % 2))
        score, seq = _enumerate_best(params, hyper, x, config)
        scorer = Scorer(params, hyper, x)
        top = beam_search(scorer, config)[0]
        vit = viterbi_exact(scorer, config)
        assert top.tokens == seq, f"beam vs enumeration on case {case}"
        assert vit.tokens == seq, f"viterbi vs enumeration on case {case}"
        worst_beam = max(worst_beam, abs(top.score - score))
        worst_vit = max(worst_vit, abs(vit.score - score))
    elapsed = time.monotonic() - started
    _verdict(3, worst_beam < 1e-9 and worst_vit < 1e-9 and elapsed < 120.0,
             f"{models} models, |score diff| beam {worst_beam:.2g} "
             f"viterbi {worst_vit:.2g}, {elapsed:.1f}s")


# --- 4: beam width one is greedy; wider never hurts; extractive stays in x ---

def test_criterion_4_beam_properties():
    rng = np.random.default_rng(11)
    instances = 200
    for case in range(instances):
        encoder = ENCODERS[case % len(ENCODERS)]
        v = int(rng.integers(8, 26))
        hyper = Hyperparams(vocab_size=v, embed_dim=3, hidden_dim=4,
                            context_size=2, encoder=encoder,
                            conv_layers=1, window=1)
        params = init_params(hyper, int(rng.integers(0, 10000)))
        x = rng.integers(3, v, size=int(rng.integers(3, 9)))
        scorer = Scorer(params, hyper, x)
        length = int(rng.integers(2, 7))

        one = beam_search(scorer, DecodeConfig(length=length, beam=1))[0]
        greedy_hyp = greedy(scorer, DecodeConfig(length=length, beam=1))
        assert one.tokens == greedy_hyp.tokens, f"case {case}"

        prev = -np.inf
        for k in (1, 2, 4, 8, 16):
            best = beam_search(scorer,
                               DecodeConfig(length=length, beam=k))[0].score
            assert best >= prev - 1e-12, f"beam {k} regressed on case {case}"
            prev = best

        ext = beam_search(scorer, DecodeConfig(length=length, beam=4,
                                               mode="extractive"))[0]
        assert set(ext.tokens) <= {int(t) for t in x}, f"case {case}"
    _verdict(4, True, f"{instances} instances: K=1 == greedy, "
             "monotone in K, extractive stays in input")


# --- 5: a single pair is memorized end to end --------------------------------

def test_criterion_5_memorization_convergence():
    rng = np.random.default_rng(4)
    pair = (rng.integers(3, 30, size=10), rng.integers(3, 30, size=6))
    hyper = Hyperparams(vocab_size=30, embed_dim=16, hidden_dim=32,
                        context_size=2, encoder="attention", window=1)
    config = TrainConfig(hyper, max_epochs=500, learning_rate=0.5,
                         batch_size=1, seed=0)
    params, history = train(config, [pair], [pair])
    per_token = nll(params, hyper, [pair]) / token_count([pair])
    _verdict(5, per_token < 0.01 and len(history) <= 500,
             f"{per_token:.4f} nats/token after {len(history)} epochs")


# --- 6: richer encoders win on held-out perplexity ---------------------------

def _jump_walk_pairs(n_pairs, vocab_size, m, n_head, seed, p_jump):
    """Copy-style synthetic corpus. Articles walk a fixed permutation ring:
    each token is the ring successor of the previous one with probability
    1 - p_jump, otherwise a uniform random word. The headline copies the
    first n_head article tokens. Jump targets are unpredictable from the
    global ring structure alone: resolving them requires locating the
    previous token inside the article and reading its right neighbour."""
    rng = np.random.default_rng(seed)
    n_words = vocab_size - 3
    perm = np.random.default_rng(12345).permutation(n_words)
    pairs = []
    for _ in range(n_pairs):
        walk = [int(rng.integers(0, n_words))]
        for _ in range(m - 1):
            if rng.random() < p_jump:
                walk.append(int(rng.integers(0, n_words)))
            else:
                walk.append((walk[-1] + 1) % n_words)
        x = np.array([int(perm[p]) + 3 for p in walk], dtype=np.int64)
        pairs.append((x, x[:n_head]))
    return pairs


@pytest.mark.slow
def test_criterion_6_encoder_quality_ordering():
    started = time.monotonic()
    train_pairs = _jump_walk_pairs(2000, 200, 14, 8, seed=7, p_jump=0.45)
    held_out = _jump_walk_pairs(200, 200, 14, 8, seed=99, p_jump=0.45)
    ppl = {}
    for encoder in ("none", "bow", "conv", "attention"):
        hyper = Hyperparams(vocab_size=200, embed_dim=32, hidden_dim=48,
                            context_size=2, encoder=encoder,
                            conv_layers=1, window=1)
        config = TrainConfig(hyper, max_epochs=200, learning_rate=2.5,
                             batch_size=16, seed=0, patience=6)
        params, _ = train(config, train_pairs, held_out)
        ppl[encoder] = perplexity(params, hyper, held_out)
    elapsed = time.monotonic() - started
    a, c, b, n = (ppl[e] for e in ("attention", "conv", "bow", "none"))
    gaps_ok = c >= 1.05 * a and b >= 1.05 * c and n >= 1.05 * b
    _verdict(6, gaps_ok and elapsed < 1800.0,
             f"attention {a:.2f} < conv {c:.2f} < bow {b:.2f} "
             f"< none {n:.2f}, {elapsed:.0f}s")


# --- 7: identity weights change nothing; tuning never hurts ------------------

def _letter_vocab():
    counts = collections.Counter({"a": 10, "b": 9, "c": 8, "d": 7, "e": 6})
    return Vocab.from_counts(counts, min_count=1)


def _biased_fixture():
    """Context-blind model whose favorite token is not in the input; the
    reference equals the input and is reachable through the match features."""
    vocab = _letter_vocab()
    hyper = Hyperparams(vocab_size=len(vocab), embed_dim=2, hidden_dim=2,
                        context_size=2, encoder="none")
    params = init_params(hyper, seed=0)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    params["b_V"] = np.array([-50.0, -50.0, -50.0, 0.4, 0.3, 0.2, -5.0, 0.5])
    x = vocab.encode(["a", "b", "c"])
    dev = [(x, [["a", "b", "c"]])]
    return params, hyper, vocab, dev, DecodeConfig(length=3, beam=8)


def test_criterion_7_tuning_identity_and_monotonicity():
    # identity weights reproduce the untuned decode, token for token
    rng = np.random.default_rng(23)
    identity = FeatureWeights.identity()
    sentences = 100
    for case in range(sentences):
        encoder = ENCODERS[case % len(ENCODERS)]
        hyper = Hyperparams(vocab_size=40, embed_dim=6, hidden_dim=8,
                            context_size=2, encoder=encoder,
                            conv_layers=1, window=1)
        params = init_params(hyper, int(rng.integers(0, 10000)))
        x = rng.integers(3, 40, size=8)
        config = DecodeConfig(length=5, beam=4)
        scorer = Scorer(params, hyper, x)
        plain = beam_search(scorer, config)[0]
        tuned = beam_search(TunedScorer(scorer, identity), config)[0]
        assert plain.tokens == tuned.tokens, f"sentence {case}"

    # tuning never decreases the dev metric on arbitrary models
    vocab = _letter_vocab()
    for seed in range(3):
        hyper = Hyperparams(vocab_size=len(vocab), embed_dim=3, hidden_dim=4,
                            context_size=2, encoder="bow",
                            conv_layers=1, window=1)
        params = init_params(hyper, seed)
        rng = np.random.default_rng(200 + seed)
        dev = []
        for _ in range(3):
            x = list(rng.integers(3, len(vocab), size=5))
            ref = vocab.decode(rng.integers(3, len(vocab), size=3))
            dev.append((x, [ref]))
        config = DecodeConfig(length=3, beam=4)
        before = dev_score(params, hyper, vocab, dev, identity, config,
                           "rouge1")
        weights = mert_tune(params, hyper, vocab, dev, config, seed=seed,
                            max_rounds=2)
        after = dev_score(params, hyper, vocab, dev, weights, config,
                          "rouge1")
        assert after >= before - 1e-12, f"seed {seed}: {before} -> {after}"

    # and strictly recovers the extractive reference on the biased fixture
    params, hyper, vocab, dev, config = _biased_fixture()
    base = dev_score(params, hyper, vocab, dev, identity, config, "rouge1")
    weights = mert_tune(params, hyper, vocab, dev, config, seed=0)
    tuned = dev_score(params, hyper, vocab, dev, weights, config, "rouge1")
    _verdict(7, base == 0.0 and tuned > base,
             f"{sentences} identity decodes identical; "
             f"tuning {base:.2f} -> {tuned:.2f} on the biased fixture")


# --- 8: evaluation metrics match hand-worked values --------------------------

HAND_FIXTURES = [
    ("a b c", "a b c", 1.0, 1.0, 1.0),
    ("a b c", "a b d", 2 / 3, 1 / 2, 2 / 3),
    ("x y", "a b", 0.0, 0.0, 0.0),
    ("a a a", "a a b", 2 / 3, 1 / 2, 2 / 3),
    ("a x b y c", "a b c", 1.0, 0.0, 1.0),
    ("c a b", "a b c", 1.0, 1 / 2, 2 / 3),
    ("b a", "a b", 1.0, 0.0, 1 / 2),
    ("the cat sat", "the cat sat down", 3 / 4, 2 / 3, 3 / 4),
    ("a b a b", "a b", 1.0, 1.0, 1.0),
    ("z a b c z", "a q b q c", 3 / 5, 0.0, 3 / 5),
]


def test_criterion_8_metric_oracle():
    for cand, ref, r1, r2, rl in HAND_FIXTURES:
        instance = EvalInstance(candidate=cand.split(),
                                references=[ref.split()])
        assert rouge_n(instance, 1) == pytest.approx(r1, abs=1e-12)
        assert rouge_n(instance, 2) == pytest.approx(r2, abs=1e-12)
        assert rouge_l(instance) == pytest.approx(rl, abs=1e-12)

    # content beyond the byte cap never changes any score
    base = [f"token{i:02d}" for i in range(12)]  # 107 bytes detokenized
    refs = [["token00", "token01", "zebra"]]
    for metric in ("rouge1", "rouge2", "rougeL"):
        short = instance_score(EvalInstance(base + ["zebra"], refs),
                               metric, byte_cap=75)
        long = instance_score(
            EvalInstance(base + ["completely", "different", "words"], refs),
            metric, byte_cap=75)
        assert short == long, metric

    # the whole-token prefix baseline is fully extractive
    rng = np.random.default_rng(5)
    words = ["alpha", "bravo", "carol", "delta", "eagle", "frost"]
    lines = [" ".join(words[i] for i in rng.integers(0, 6, size=20))
             for _ in range(25)]
    cands = [_prefix_line(line, 75).split() for line in lines]
    inputs = [preprocess(line) for line in lines]
    pct = extractive_pct(cands, inputs, byte_cap=75)
    _verdict(8, pct == 100.0,
             f"10 hand fixtures exact, capped suffixes inert, "
             f"prefix Ext.% = {pct:.0f}")


# --- 9: the full pipeline is bytewise reproducible ---------------------------

def _pipeline_words():
    return ["alpha", "bravo", "carol", "delta", "eagle", "frost"]


def _write_pipeline_corpus(root):
    rng = np.random.default_rng(0)
    words = _pipeline_words()
    raw, arts, heads = [], [], []
    for _ in range(24):
        art = [words[i] for i in rng.integers(0, len(words), size=5)]
        raw.append(" ".join(art) + "\t" + " ".join(art[:2]))
        arts.append(" ".join(art))
        heads.append(" ".join(art[:2]))
    (root / "raw.tsv").write_text("".join(f"{h}\t{a}\n" for a, h in
                                          (line.split("\t") for line in raw)),
                                  encoding="utf-8")
    (root / "arts.txt").write_text("\n".join(arts) + "\n", encoding="utf-8")
    (root / "heads.txt").write_text("\n".join(heads) + "\n", encoding="utf-8")


def _run_pipeline(root):
    """preprocess -> train (3 epochs) -> decode -> eval, all with relative
    paths so recorded configuration is location-independent. Returns captured
    stdout per stage plus every artifact's bytes."""
    _write_pipeline_corpus(root)
    cwd = os.getcwd()
    os.chdir(root)
    stdouts = {}
    try:
        for stage, argv in (
            ("preprocess", ["preprocess", "--pairs", "raw.tsv",
                            "--out-pairs", "pairs.tsv",
                            "--out-vocab", "vocab.tsv", "--min-count", "1"]),
            ("train", ["train", "--pairs", "pairs.tsv", "--vocab",
                       "vocab.tsv", "--out-dir", "run", "--encoder", "bow",
                       "--embed-dim", "4", "--hidden-dim", "5",
                       "--context-size", "2", "--conv-layers", "1",
                       "--window", "1", "--epochs", "3", "--batch-size", "4",
                       "--lr", "0.05", "--seed", "1"]),
            ("decode", ["decode", "--model", "run/final.model", "--vocab",
                        "vocab.tsv", "--input", "arts.txt", "--out",
                        "out.txt", "--N", "3", "--beam", "4"]),
            ("eval", ["eval", "--cand", "out.txt", "--refs", "heads.txt",
                      "--inputs", "arts.txt", "--byte-cap", "75"]),
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            assert code == 0, f"{stage} exited {code}: {buf.getvalue()}"
            stdouts[stage] = buf.getvalue()
    finally:
        os.chdir(cwd)
    artifacts = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return stdouts, artifacts


def test_criterion_9_pipeline_reproducibility(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    out_a, files_a = _run_pipeline(run_a)
    out_b, files_b = _run_pipeline(run_b)
    assert out_a == out_b, "stage stdout differs between runs"
    assert sorted(files_a) == sorted(files_b), "artifact sets differ"
    diffs = [name for name in files_a if files_a[name] != files_b[name]]
    assert not diffs, f"artifacts differ: {diffs}"
    _verdict(9, True, f"{len(files_a)} artifacts and 4 stage outputs "
             "byte-identical across runs")
