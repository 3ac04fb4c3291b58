"""The benchmark's workloads. Each is a closed loop with one caller that runs
the program's public API the way the `attnsum` command line does.

A workload has `prepare(seed, workdir)`, which generates its inputs from the
seed and writes them into files in workdir, returning their paths and any
seed the program is given (untimed); `setup(files)`, which reads the files
back through the program's own loaders as the command line does and returns
a state (timed as set-up); `op(state, i, tracer)`, the i-th operation of the
timed loop; `check(state, results)`, which returns one failure message per
failed operation; `summary(state, results, generic)`, its own named metrics
given the generic ones as (value, unit) by name; `digests(results)`, SHA-256
digests of its deterministic outputs; and `items(state)`, the units of work
one operation completes. Operations are grouped in rounds of `round_len`;
the timed loop stops only between rounds.
"""

import hashlib
import math
import os
import statistics
from time import perf_counter

import numpy as np

from attnsum.corpus import (Vocab, encode_pairs, preprocess, read_pairs,
                            write_pairs)
from attnsum.decoding import DecodeConfig, beam_search, finalize
from attnsum.model import (ENCODERS, Hyperparams, Scorer, forward,
                           init_params, load_model, make_batch, save_model)
from attnsum.training import TrainConfig, token_count, train
from attnsum.tuning import FeatureWeights, dev_score, mert_tune

import inputs

# seed streams: one per generated input of a run
_TRAIN, _VALID, _MODEL, _LINES, _DEV = range(5)


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _hex(values):
    return " ".join(float(v).hex() for v in values)


def _words_and_vocab(size):
    """The generated words of a vocabulary of `size` ids, and that
    vocabulary: word k has id k + N_RESERVED."""
    words = inputs.word_list(size - inputs.N_RESERVED)
    return words, Vocab.from_counts(inputs.vocab_counts(words), min_count=1)


def _write_model(workdir, tag, hyper, seed, vocab):
    """Save a seeded model and its vocabulary; return their paths."""
    paths = {"model": os.path.join(workdir, f"{tag}.model"),
             "vocab": os.path.join(workdir, f"{tag}.vocab")}
    save_model(paths["model"], init_params(hyper, seed), hyper)
    vocab.save(paths["vocab"])
    return paths


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _load_model(files):
    """(params, hyper, vocab) read back as `attnsum decode` and `attnsum
    tune` read them."""
    params, hyper = load_model(files["model"])
    vocab = Vocab.load(files["vocab"])
    if len(vocab) != hyper.vocab_size:
        raise ValueError(f"{len(vocab)} vocabulary entries for a model of "
                         f"{hyper.vocab_size}")
    return params, hyper, vocab


class TrainCopy:
    """All four encoders in turn, each trained from scratch for a fixed
    number of epochs on the jump-walk copy corpus. One round trains each
    encoder once; every round repeats the same work."""

    name = "train-copy"
    why = ("training.train on the jump-walk copy corpus, none/bow/conv/"
           "attention in turn (V=200, M=14, 8-token heads, D=32 H=48 C=2, "
           "batch 16): only model and training work")
    round_len = len(ENCODERS)

    def __init__(self, toy=False):
        self.shape = dict(vocab=200, article_len=14, head_len=8,
                          p_jump=0.45, train_pairs=2000, valid_pairs=200,
                          embed_dim=32, hidden_dim=48, context=2,
                          conv_layers=1, window=1, batch=16, lr=2.5,
                          patience=6, epochs=1)
        if toy:
            self.shape.update(vocab=30, train_pairs=24, valid_pairs=6,
                              embed_dim=4, hidden_dim=5, batch=4)

    def prepare(self, seed, workdir):
        s = self.shape
        words, vocab = _words_and_vocab(s["vocab"])
        files = {"vocab": os.path.join(workdir, "train.vocab")}
        vocab.save(files["vocab"])
        for part, n, stream in (("train", s["train_pairs"], _TRAIN),
                                ("valid", s["valid_pairs"], _VALID)):
            pairs = inputs.jump_walk_pairs(
                n, s["vocab"], s["article_len"], s["head_len"],
                inputs.sub_seed(seed, stream), s["p_jump"])
            files[part] = os.path.join(workdir, f"{part}.pairs")
            write_pairs(files[part], [
                ([words[t - inputs.N_RESERVED] for t in y],
                 [words[t - inputs.N_RESERVED] for t in x])
                for x, y in pairs])
        files["seed"] = inputs.sub_seed(seed, _MODEL)
        return files

    def setup(self, files):
        """What `attnsum train` does before its first epoch: load the
        vocabulary, read and encode the corpora, configure each encoder."""
        s = self.shape
        vocab = Vocab.load(files["vocab"])
        train, valid = (encode_pairs([(head.split(), art.split())
                                      for head, art in read_pairs(files[p])],
                                     vocab)
                        for p in ("train", "valid"))
        configs = {}
        for encoder in ENCODERS:
            hyper = Hyperparams(
                vocab_size=len(vocab), embed_dim=s["embed_dim"],
                hidden_dim=s["hidden_dim"], context_size=s["context"],
                encoder=encoder, conv_layers=s["conv_layers"],
                window=s["window"])
            configs[encoder] = TrainConfig(
                hyper, max_epochs=s["epochs"], learning_rate=s["lr"],
                batch_size=s["batch"], seed=files["seed"],
                patience=s["patience"])
        return {"train": train, "valid": valid, "configs": configs,
                "tokens": token_count(train)}

    def op(self, state, i, tracer):
        encoder = ENCODERS[i % len(ENCODERS)]
        tracer.begin_op(encoder)
        epoch_s = []

        def lap(epoch, params, record):
            nonlocal last
            now = perf_counter()
            epoch_s.append(now - last)
            last = now

        with tracer.span("training.train"):
            last = perf_counter()
            _, history = train(state["configs"][encoder], state["train"],
                               state["valid"], epoch_callback=lap)
        return {"encoder": encoder, "history": history, "epoch_s": epoch_s}

    def check(self, state, results):
        failures = []
        first = {}
        for res in results:
            if isinstance(res, Exception):
                failures.append(f"raised {res!r}")
                continue
            rows = [_record_values(r) for r in res["history"]]
            if len(rows) != self.shape["epochs"]:
                failures.append(f"{res['encoder']}: {len(rows)} epochs")
            elif not all(math.isfinite(v) for row in rows for v in row):
                failures.append(f"{res['encoder']}: non-finite epoch record")
            elif first.setdefault(res["encoder"], rows) != rows:
                failures.append(f"{res['encoder']}: history differs from "
                                "the first round's")
        return failures

    def summary(self, state, results, generic):
        out = {}
        for encoder in ENCODERS:
            runs = [r for r in results if not isinstance(r, Exception)
                    and r["encoder"] == encoder]
            if not runs:
                continue
            per_epoch = statistics.median(
                s for r in runs for s in r["epoch_s"])
            out[f"train_tok_per_s.{encoder}"] = (state["tokens"] / per_epoch,
                                                 "1/s")
            out[f"s_per_epoch.{encoder}"] = (per_epoch, "s")
            out[f"valid_ppl.{encoder}"] = (
                runs[0]["history"][-1].valid_perplexity, "ppl")
        return out

    def digests(self, results):
        seen = {}
        for res in results:
            if not isinstance(res, Exception):
                seen.setdefault(res["encoder"], res["history"])
        return {f"history.{enc}": _sha256(_hex(_record_values(r))
                                          for r in hist)
                for enc, hist in seen.items()}

    def items(self, state):
        return state["tokens"] * self.shape["epochs"]


def _record_values(record):
    return (record.epoch, record.train_nll, record.valid_nll,
            record.valid_perplexity, record.learning_rate)


class Decode:
    """The per-line decode path of `attnsum decode`: preprocess, encode,
    Scorer, beam_search, finalize, over Zipf-like raw lines."""

    round_len = 1

    def __init__(self, name, why, mode, vocab, lines, digest_ops, toy=False):
        self.name = name
        self.why = why
        self.digest_ops = digest_ops
        self.shape = dict(vocab=vocab, embed_dim=50, hidden_dim=100,
                          context=5, window=2, beam=8, length=10,
                          byte_cap=75, mode=mode, min_len=15, max_len=40,
                          zipf_exponent=1.1, lines=lines)
        if toy:
            self.shape.update(vocab=60, embed_dim=4, hidden_dim=5,
                              context=2, window=1, length=3, beam=3,
                              min_len=4, max_len=7, lines=4)
            self.digest_ops = 2

    def prepare(self, seed, workdir):
        s = self.shape
        words, vocab = _words_and_vocab(s["vocab"])
        hyper = Hyperparams(vocab_size=len(vocab), embed_dim=s["embed_dim"],
                            hidden_dim=s["hidden_dim"],
                            context_size=s["context"], encoder="attention",
                            window=s["window"])
        files = _write_model(workdir, self.name, hyper,
                             inputs.sub_seed(seed, _MODEL), vocab)
        files["input"] = os.path.join(workdir, f"{self.name}.input")
        _write_lines(files["input"], inputs.zipf_lines(
            words, s["lines"], s["min_len"], s["max_len"],
            inputs.sub_seed(seed, _LINES), s["zipf_exponent"]))
        return files

    def setup(self, files):
        """What `attnsum decode` does before its first line: load the model
        and vocabulary and read the input lines."""
        s = self.shape
        params, hyper, vocab = _load_model(files)
        config = DecodeConfig(length=s["length"], beam=s["beam"],
                              mode=s["mode"], byte_cap=s["byte_cap"])
        return {"params": params, "hyper": hyper, "vocab": vocab,
                "lines": _read_lines(files["input"]), "config": config}

    def op(self, state, i, tracer):
        tracer.begin_op(self.name)
        line = state["lines"][i % len(state["lines"])]
        with tracer.span("corpus.preprocess"):
            tokens = preprocess(line)
        with tracer.span("corpus.encode"):
            x = state["vocab"].encode(tokens)
        with tracer.span("model.scorer_init"):
            scorer = Scorer(state["params"], state["hyper"], x)
        beam = tracer.beam_search(beam_search)(scorer, state["config"])
        with tracer.span("decoding.finalize"):
            text = finalize(beam[0], state["config"], state["vocab"])
        return {"x": x, "beam": beam, "text": text}

    def check(self, state, results):
        failures = []
        for res in results:
            if isinstance(res, Exception):
                failures.append(f"raised {res!r}")
                continue
            problem = self._problem(state, res)
            if problem:
                failures.append(problem)
        return failures

    def _problem(self, state, res):
        """Why a decode's output is wrong, or None. The rescoring goes
        through model.make_batch and model.forward, the training path, not
        through Scorer and its per-sentence precomputation."""
        config, hyper = state["config"], state["hyper"]
        beam, x = res["beam"], res["x"]
        if not beam or len(beam) > config.beam:
            return f"beam of {len(beam)} hypotheses"
        pool = set(x) if config.mode == "extractive" \
            else set(range(hyper.vocab_size))
        allowed = pool - {0, 1, 2}
        best = beam[0]
        if len(best.tokens) != config.length:
            return f"best hypothesis has {len(best.tokens)} tokens"
        if not set(best.tokens) <= allowed:
            return "best hypothesis leaves the candidate set"
        scores = [h.score for h in beam]
        if any(a < b for a, b in zip(scores, scores[1:])):
            return "beam scores increase"
        if len({h.context for h in beam}) != len(beam):
            return "beam contexts repeat"
        # every step of the hypothesis in one batch, as training scores it
        logp = forward(state["params"], hyper,
                       make_batch([(x, best.tokens)], hyper))["logp"]
        rescored = 0.0
        for step, token in enumerate(best.tokens):
            rescored += float(logp[step, token])
        if abs(rescored - best.score) > 1e-9 * abs(rescored):
            return f"score {best.score!r} but rescored {rescored!r}"
        return None

    def summary(self, state, results, generic):
        return {"decode_sents_per_s": generic["items_per_s"],
                "decode_sent_ms_p50": generic["op_ms_p50"],
                "decode_sent_ms_tail": generic["op_ms_tail"]}

    def digests(self, results):
        done = [r for r in results[:self.digest_ops]
                if not isinstance(r, Exception)]
        return {f"decoded_ids.first{len(done)}": _sha256(
            " ".join(map(str, r["beam"][0].tokens)) for r in done)}

    def items(self, state):
        return 1


class TuneExt:
    """The `attnsum tune` sequence on one dev set per operation: identity
    dev_score, mert_tune, tuned dev_score. One MERT round per tune, so each
    tune searches the same number of directions whatever its dev set."""

    name = "tune-ext"
    why = ("cmd_tune sequence, extractive beam 8 N=8, 10 jump-walk dev "
           "sentences per tune, refs = first 8 input tokens, one MERT "
           "round: measures tuning and rouge")
    round_len = 1
    digest_ops = 4

    def __init__(self, toy=False):
        self.shape = dict(vocab=200, embed_dim=32, hidden_dim=48, context=2,
                          window=1, article_len=14, ref_len=8, p_jump=0.45,
                          dev_sents=10, dev_sets=32, beam=8, length=8,
                          metric="rouge1", mert_seed=0, mert_rounds=1)
        if toy:
            self.shape.update(vocab=30, embed_dim=4, hidden_dim=5,
                              article_len=6, ref_len=3, dev_sents=2,
                              dev_sets=2, beam=2, length=3)
            self.digest_ops = 2

    def prepare(self, seed, workdir):
        s = self.shape
        words, vocab = _words_and_vocab(s["vocab"])
        hyper = Hyperparams(vocab_size=len(vocab), embed_dim=s["embed_dim"],
                            hidden_dim=s["hidden_dim"],
                            context_size=s["context"], encoder="attention",
                            conv_layers=1, window=s["window"])
        files = _write_model(workdir, self.name, hyper,
                             inputs.sub_seed(seed, _MODEL), vocab)
        dev_seed = inputs.sub_seed(seed, _DEV)
        dev = [pair for k in range(s["dev_sets"])
               for pair in inputs.tune_dev(words, s["dev_sents"],
                                           s["article_len"], s["ref_len"],
                                           dev_seed + k, s["p_jump"])]
        for part, col in (("dev", 0), ("refs", 1)):
            files[part] = os.path.join(workdir, f"{self.name}.{part}")
            _write_lines(files[part], [pair[col] for pair in dev])
        return files

    def setup(self, files):
        """What `attnsum tune` does before its first decode: load the model
        and vocabulary, read the dev and reference lines, preprocess them and
        encode the dev lines; here the dev set is split into dev sets of
        dev_sents lines."""
        s = self.shape
        params, hyper, vocab = _load_model(files)
        dev = [(vocab.encode(preprocess(line)), [preprocess(ref)])
               for line, ref in zip(_read_lines(files["dev"]),
                                    _read_lines(files["refs"]))]
        n = s["dev_sents"]
        config = DecodeConfig(length=s["length"], beam=s["beam"],
                              mode="extractive")
        return {"params": params, "hyper": hyper, "vocab": vocab,
                "dev_sets": [dev[k:k + n] for k in range(0, len(dev), n)],
                "config": config}

    def op(self, state, i, tracer):
        tracer.begin_op(self.name)
        s = self.shape
        params, hyper, vocab = state["params"], state["hyper"], state["vocab"]
        config = state["config"]
        dev = state["dev_sets"][i % len(state["dev_sets"])]
        with tracer.span("tuning.dev_score"):
            before = dev_score(params, hyper, vocab, dev,
                               FeatureWeights.identity(), config, s["metric"])
        with tracer.span("tuning.mert"):
            weights = mert_tune(params, hyper, vocab, dev, config,
                                metric=s["metric"], seed=s["mert_seed"],
                                max_rounds=s["mert_rounds"])
        with tracer.span("tuning.dev_score"):
            after = dev_score(params, hyper, vocab, dev, weights, config,
                              s["metric"])
        return {"before": before, "after": after, "alpha": weights.alpha}

    def check(self, state, results):
        failures = []
        for res in results:
            if isinstance(res, Exception):
                failures.append(f"raised {res!r}")
            elif not np.all(np.isfinite(res["alpha"])):
                failures.append("non-finite tuned weights")
            elif res["after"] < res["before"]:
                failures.append(f"tuned dev score {res['after']} below "
                                f"identity {res['before']}")
        return failures

    def summary(self, state, results, generic):
        done = [r for r in results if not isinstance(r, Exception)]
        if not done:
            return {}
        return {
            "tune_s": (generic["op_ms_p50"][0] / 1e3, "s"),
            "tune_dev_rouge1": (statistics.mean(r["after"] for r in done),
                                "recall"),
            "identity_dev_rouge1": (statistics.mean(r["before"]
                                                    for r in done), "recall"),
        }

    def digests(self, results):
        done = [r for r in results[:self.digest_ops]
                if not isinstance(r, Exception)]
        return {f"tuned_weights.first{len(done)}": _sha256(
            _hex(r["alpha"]) for r in done)}

    def items(self, state):
        return self.shape["dev_sents"]


def make(name, toy=False):
    """The workload called `name`; toy=True shrinks every size for tests."""
    if name == "train-copy":
        return TrainCopy(toy)
    if name == "decode-abs-5k":
        return Decode(
            name, "abstractive beam 8, N=10, V=5000, D=50 H=100 C=5: "
            "decoding ranks K*|V| = 40k candidates per step in Python",
            "abstractive", 5000, 64, 8, toy)
    if name == "decode-ext-20k":
        return Decode(
            name, "extractive beam 8, N=10, V=20000: candidates are the "
            "input's own types, so (K,H)x(H,V) scoring and the V-wide "
            "log-softmax dominate", "extractive", 20000, 1024, 64, toy)
    if name == "tune-ext":
        return TuneExt(toy)
    raise KeyError(name)
