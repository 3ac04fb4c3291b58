import dataclasses
import math

import numpy as np
import pytest

from attnsum.model import (Hyperparams, cond_dist, context_windows,
                           init_params, load_model, save_model)
from attnsum.training import (
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    nll,
    perplexity,
    renormalize_embeddings,
    token_count,
    train,
)


def zeroed(hyper, seed=0):
    params = init_params(hyper, seed)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    return params


def small_hyper(encoder="none", vocab=12):
    return Hyperparams(vocab_size=vocab, embed_dim=3, hidden_dim=4,
                       context_size=2, encoder=encoder, conv_layers=1,
                       window=1)


def random_corpus(rng, hyper, n_pairs, m_range=(3, 7), n_range=(1, 4)):
    return [(list(rng.integers(3, hyper.vocab_size,
                               size=rng.integers(*m_range))),
             list(rng.integers(3, hyper.vocab_size,
                               size=rng.integers(*n_range))))
            for _ in range(n_pairs)]


def test_nll_uniform_model_single_token():
    hyper = small_hyper()
    params = zeroed(hyper)
    assert math.isclose(nll(params, hyper, [([3, 4], [5])]), math.log(12),
                        rel_tol=1e-12)


def test_nll_doubles_when_corpus_doubles():
    hyper = small_hyper("bow")
    params = init_params(hyper, 1)
    pairs = [([3, 4, 5], [6, 7]), ([8, 9], [10])]
    assert math.isclose(nll(params, hyper, pairs * 2),
                        2 * nll(params, hyper, pairs), rel_tol=1e-12)


def test_nll_matches_per_token_cond_dist():
    hyper = small_hyper("attention")
    params = init_params(hyper, 2)
    rng = np.random.default_rng(0)
    pairs = random_corpus(rng, hyper, 5)
    expected = 0.0
    for x, y in pairs:
        for ctx, tgt in zip(context_windows(y, hyper.context_size), y):
            expected -= math.log(cond_dist(params, hyper, x, ctx)[tgt])
    assert math.isclose(nll(params, hyper, pairs), expected, rel_tol=1e-10)


def test_nll_empty_corpus_errors():
    hyper = small_hyper()
    with pytest.raises(ValueError, match="empty"):
        nll(zeroed(hyper), hyper, [])


def test_perplexity_uniform_model_is_vocab_size():
    hyper = small_hyper()
    params = zeroed(hyper)
    pairs = [([3, 4], [5, 6, 7]), ([8], [9])]
    assert math.isclose(perplexity(params, hyper, pairs), 12.0, rel_tol=1e-12)


def test_perplexity_half_probability_is_two():
    hyper = Hyperparams(vocab_size=4, embed_dim=2, hidden_dim=2,
                        context_size=1, encoder="none")
    params = zeroed(hyper)
    # softmax(b_V) = [1/2, 1/6, 1/6, 1/6]; every target is token 0
    params["b_V"] = np.log(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))
    pairs = [([1, 2], [0, 0, 0])]
    assert math.isclose(perplexity(params, hyper, pairs), 2.0, rel_tol=1e-12)


def test_renormalize_scales_only_long_columns():
    hyper = small_hyper("attention")
    params = init_params(hyper, 3)
    params["E"] = np.zeros_like(params["E"])
    before_u = params["U"].copy()
    table = np.zeros_like(params["F"])
    table[:, 0] = [2.0, 0, 0, 0]     # norm 2 -> scaled by 0.5
    table[:, 1] = [0.3, 0, 0, 0]     # norm 0.3 -> untouched
    params["F"] = table
    renormalize_embeddings(params, 1.0)
    assert np.allclose(params["F"][:, 0], [1.0, 0, 0, 0])
    assert np.allclose(params["F"][:, 1], [0.3, 0, 0, 0])
    assert np.array_equal(params["E"], np.zeros_like(params["E"]))
    assert np.array_equal(params["U"], before_u)  # dense weights exempt


def test_renormalize_random_postcondition():
    hyper = small_hyper("attention")
    params = init_params(hyper, 4)
    params["G"] = np.random.default_rng(5).normal(size=params["G"].shape)
    renormalize_embeddings(params, 1.0)
    for name in ("E", "F", "G"):
        norms = np.sqrt((params[name] ** 2).sum(axis=0))
        assert norms.max() <= 1.0 + 1e-12


def test_train_zero_learning_rate_keeps_init():
    hyper = small_hyper("bow")
    config = TrainConfig(hyperparams=hyper, max_epochs=3, learning_rate=0.0,
                         seed=7)
    rng = np.random.default_rng(1)
    pairs = random_corpus(rng, hyper, 8)
    params, history = train(config, pairs, pairs[:2])
    reference = init_params(hyper, 7)
    # renorm is a no-op at init scale (columns are far below norm 1)
    for name in params.names():
        assert np.array_equal(params[name], reference[name])
    assert len(history) == 3
    assert all(isinstance(r, EpochRecord) for r in history)


def test_train_bit_reproducible():
    hyper = small_hyper("attention")
    config = TrainConfig(hyperparams=hyper, max_epochs=4, seed=11)
    rng = np.random.default_rng(2)
    pairs = random_corpus(rng, hyper, 12)
    p1, h1 = train(config, pairs, pairs[:3])
    p2, h2 = train(config, pairs, pairs[:3])
    for name in p1.names():
        assert np.array_equal(p1[name], p2[name])
    assert h1 == h2


def test_history_valid_nll_matches_checkpoints(tmp_path):
    # each epoch is snapshot as `attnsum train` checkpoints it: a model file
    hyper = small_hyper("bow")
    config = TrainConfig(hyperparams=hyper, max_epochs=3, seed=3)
    rng = np.random.default_rng(3)
    pairs = random_corpus(rng, hyper, 10)
    valid = pairs[:3]
    paths = []

    def checkpoint(epoch, params, record):
        paths.append(tmp_path / f"epoch-{epoch:03d}.model")
        save_model(paths[-1], params, hyper)

    params, history = train(config, pairs, valid, epoch_callback=checkpoint)
    snaps = [load_model(path)[0] for path in paths]
    assert len(snaps) == len(history)
    for record, snap in zip(history, snaps):
        assert math.isclose(record.valid_nll, nll(snap, hyper, valid),
                            rel_tol=1e-12)
    for name in params.names():
        assert np.array_equal(params[name], snaps[-1][name])


def test_learning_rate_halves_exactly_on_plateau():
    hyper = small_hyper("none")
    config = TrainConfig(hyperparams=hyper, max_epochs=12, seed=5,
                         learning_rate=0.05)
    rng = np.random.default_rng(4)
    pairs = random_corpus(rng, hyper, 10)
    _, history = train(config, pairs, pairs[:4])
    rates = [r.learning_rate for r in history]
    assert rates[0] == 0.05
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    # replay the schedule from the recorded validation NLLs
    best = np.inf
    expected = 0.05
    for record in history:
        assert record.learning_rate == expected
        if record.valid_nll < best:
            best = record.valid_nll
        else:
            expected /= 2.0


def test_divergence_aborts_with_diagnostic():
    hyper = small_hyper("bow")
    config = TrainConfig(hyperparams=hyper, max_epochs=50,
                         learning_rate=1e8, seed=0)
    rng = np.random.default_rng(6)
    pairs = random_corpus(rng, hyper, 6)
    with pytest.raises(TrainingDiverged, match="lr"):
        train(config, pairs, pairs[:2])


def test_single_pair_memorization():
    # one pair, attention encoder: NLL falls to near zero (the model can
    # put nearly all mass on each gold token)
    hyper = Hyperparams(vocab_size=14, embed_dim=16, hidden_dim=32,
                        context_size=2, encoder="attention", window=2)
    pair = ([3, 4, 5, 6, 7, 8], [4, 6, 8, 9])
    config = TrainConfig(hyperparams=hyper, max_epochs=200, seed=1,
                         learning_rate=0.5, batch_size=1)
    params, history = train(config, [pair], [pair])
    per_token = history[-1].valid_nll / 4
    assert per_token < 0.05
    assert history[-1].valid_nll < history[0].valid_nll / 10


def test_config_validation():
    hyper = small_hyper()
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(hyperparams=hyper, max_epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(hyperparams=hyper, max_epochs=1, learning_rate=-1)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(hyperparams=hyper, max_epochs=1, batch_size=0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(hyperparams=hyper, max_epochs=1, patience=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        TrainConfig(hyperparams=hyper, max_epochs=1, seed=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(hyperparams=hyper, max_epochs=1, learning_rate=bad)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="renorm_max_norm"):
            TrainConfig(hyperparams=hyper, max_epochs=1,
                        renorm_max_norm=bad)
        with pytest.raises(ValueError, match="max_norm"):
            renormalize_embeddings(init_params(hyper, 0), bad)
    # the hyperparameters are checked when they are built
    fields = dict(vocab_size=12, embed_dim=3, hidden_dim=4, context_size=2)
    for name, bad, message in [
            ("vocab_size", 0, "vocab_size must be positive"),
            ("embed_dim", 0, "embed_dim must be positive"),
            ("hidden_dim", 0, "hidden_dim must be positive"),
            ("context_size", 0, "context_size must be positive"),
            ("encoder", "lstm", "unknown encoder kind 'lstm'"),
            ("conv_layers", 0, "conv_layers must be positive"),
            ("window", -1, "window must be nonnegative")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Hyperparams(**{**fields, name: bad})
    config = TrainConfig(hyperparams=hyper, max_epochs=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_epochs = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        hyper.window = -1


def test_token_count():
    assert token_count([([1], [2, 3]), ([4], [5])]) == 3


def _golden_corpora():
    rng = np.random.default_rng(2024)
    draw = lambda m, n: (list(rng.integers(3, 16, size=m)),  # noqa: E731
                         list(rng.integers(3, 16, size=n)))
    equal = [draw(6, 4) for _ in range(10)], [draw(6, 4) for _ in range(3)]
    ragged = ([draw(m, n) for m, n in zip([4, 6] * 5,
                                          [1, 3, 2, 5, 4, 1, 3, 5, 2, 4])],
              [draw(m, n) for m, n in [(4, 2), (6, 5), (4, 3)]])
    return {"equal": equal, "ragged": ragged}


# (train_nll, valid_nll, valid_perplexity, learning_rate) of each epoch of
# the training run in test_golden_training_history, as .hex() literals. They
# were recorded once and are kept as they are: a change to batching or to
# the model's arithmetic that moves any bit fails here. The equal-length
# corpus takes the stacked attention path, the ragged one the per-run loop.
GOLDEN_HISTORIES = {
    ("equal", "none"): [
        ("0x1.bbd75fae85253p+6", "0x1.08aec5d2d498ap+5",
         "0x1.f822fd89c2b06p+3", "0x1.0000000000000p-1"),
        ("0x1.b10ec70484a0ep+6", "0x1.09f4ef1d7a0f9p+5",
         "0x1.fedf37c3723acp+3", "0x1.0000000000000p-1")],
    ("equal", "bow"): [
        ("0x1.bb133132f8ed6p+6", "0x1.08c8e8549ff8ap+5",
         "0x1.f8ac4ee9f14e9p+3", "0x1.0000000000000p-1"),
        ("0x1.a842af394196cp+6", "0x1.0c2fcb27d57c0p+5",
         "0x1.0570535c41877p+4", "0x1.0000000000000p-1")],
    ("equal", "conv"): [
        ("0x1.bb10248512812p+6", "0x1.08c1420933495p+5",
         "0x1.f88419bd2eaadp+3", "0x1.0000000000000p-1"),
        ("0x1.a842ba664129dp+6", "0x1.0c2796cc97b3ep+5",
         "0x1.0559fc5f0cd59p+4", "0x1.0000000000000p-1")],
    ("equal", "attention"): [
        ("0x1.bb13376b911bep+6", "0x1.08c9d0f1f640cp+5",
         "0x1.f8b115cb439d3p+3", "0x1.0000000000000p-1"),
        ("0x1.a842f252cae92p+6", "0x1.0c30a3b8da437p+5",
         "0x1.0572a12685036p+4", "0x1.0000000000000p-1")],
    ("ragged", "none"): [
        ("0x1.4a6f9f5b57832p+6", "0x1.b8f19c80ae99cp+4",
         "0x1.f7868fc5dbb61p+3", "0x1.0000000000000p-1"),
        ("0x1.43463e76224bep+6", "0x1.b24412fd62aa6p+4",
         "0x1.e2f15042bb344p+3", "0x1.0000000000000p-1")],
    ("ragged", "bow"): [
        ("0x1.49b8fdbf2dcc7p+6", "0x1.b8976cf8d8d82p+4",
         "0x1.f66b0e6e5fdb8p+3", "0x1.0000000000000p-1"),
        ("0x1.3fc60f59ff4e9p+6", "0x1.ae886b4f15f6cp+4",
         "0x1.d7ce29a4af07fp+3", "0x1.0000000000000p-1")],
    ("ragged", "conv"): [
        ("0x1.49b914375e4bfp+6", "0x1.b89581fc5248ep+4",
         "0x1.f66508b6cba40p+3", "0x1.0000000000000p-1"),
        ("0x1.3fc9869fb3c7ap+6", "0x1.ae836a45ab7e0p+4",
         "0x1.d7bf685fcc167p+3", "0x1.0000000000000p-1")],
    ("ragged", "attention"): [
        ("0x1.49b8664348aa8p+6", "0x1.b89a2558dc32ep+4",
         "0x1.f673993359bbcp+3", "0x1.0000000000000p-1"),
        ("0x1.3fc6509253a9cp+6", "0x1.ae8a83630767bp+4",
         "0x1.d7d4567614cecp+3", "0x1.0000000000000p-1")],
}


def test_golden_training_history():
    corpora = _golden_corpora()
    for (corpus, encoder), want in GOLDEN_HISTORIES.items():
        hyper = Hyperparams(vocab_size=16, embed_dim=3, hidden_dim=4,
                            context_size=2, encoder=encoder, conv_layers=2,
                            window=1)
        config = TrainConfig(hyper, max_epochs=2, learning_rate=0.5,
                             batch_size=4, seed=9)
        _, history = train(config, *corpora[corpus])
        got = [(r.train_nll.hex(), r.valid_nll.hex(),
                r.valid_perplexity.hex(), r.learning_rate.hex())
               for r in history]
        assert [r.epoch for r in history] == [1, 2]
        assert got == want, (corpus, encoder)


def test_nll_memory_stays_within_the_logit_budget():
    import tracemalloc

    from attnsum import model
    hyper = Hyperparams(vocab_size=5000, embed_dim=4, hidden_dim=6,
                        context_size=2, encoder="bow")
    params = init_params(hyper, 1)
    rng = np.random.default_rng(7)
    pairs = [(list(rng.integers(3, 5000, size=5)),
              list(rng.integers(3, 5000, size=20))) for _ in range(200)]
    # 4000 steps x 5000 words: about five budgets of logits
    assert token_count(pairs) * hyper.vocab_size > 4 * model.LOGIT_BUDGET
    tracemalloc.start()
    try:
        nll(params, hyper, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a forward pass holds at most three (T,V) float64 arrays at once, the
    # logits and two in the log-softmax; one batch would need 480 MB
    assert peak < 3 * 8 * model.LOGIT_BUDGET + (8 << 20)


def test_chunked_nll_matches_one_batch(monkeypatch):
    from attnsum import model
    rng = np.random.default_rng(8)
    for encoder in ("none", "bow", "conv", "attention"):
        hyper = small_hyper(encoder, vocab=40)
        params = init_params(hyper, 3)
        pairs = random_corpus(rng, hyper, 30, m_range=(3, 5), n_range=(1, 9))
        whole = nll(params, hyper, pairs)
        monkeypatch.setattr(model, "LOGIT_BUDGET", 7 * hyper.vocab_size)
        chunked = nll(params, hyper, pairs)
        monkeypatch.undo()
        assert math.isclose(chunked, whole, rel_tol=1e-12)
        assert chunked != 0.0


@pytest.mark.parametrize("part", ["train", "valid"])
@pytest.mark.parametrize("bad, message", [
    (([3, 4], [5, 99]), "output ids out of range"),
    (([3, 99], [5]), "input ids out of range"),
    (([3, 4], []), "empty sequence in pair"),
    (([], [5]), "empty sequence in pair"),
])
def test_bad_corpus_rejected_before_any_step(part, bad, message,
                                            monkeypatch):
    from attnsum import training
    steps = []
    backward = training.backward
    monkeypatch.setattr(training, "backward",
                        lambda *args: steps.append(1) or backward(*args))
    hyper = small_hyper("attention")
    rng = np.random.default_rng(9)
    corpora = {"train": random_corpus(rng, hyper, 12),
               "valid": random_corpus(rng, hyper, 3)}
    corpora[part] = corpora[part] + [bad]  # last, so late in every order
    calls = []
    config = TrainConfig(hyperparams=hyper, max_epochs=2, seed=1)
    with pytest.raises(ValueError, match=message):
        train(config, corpora["train"], corpora["valid"],
              epoch_callback=lambda *args: calls.append(args))
    assert calls == [] and steps == []
