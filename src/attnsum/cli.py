"""Command-line pipeline around the package: preprocess raw pairs, train a
model, decode summaries, tune re-ranking weights, score candidates, emit the
prefix baseline, export attention traces, and inspect model files.

Exit codes: 0 success, 1 command-line usage error, 2 data or file error,
3 numeric failure during training.
"""

import argparse
import dataclasses
import json
import os
import struct
import sys

from . import CORPUS_FORMAT_VERSION, MODEL_FORMAT_VERSION, __version__
from .corpus import (Vocab, atomic_open, check_byte_cap, detokenize,
                     encode_pairs, preprocess, preprocess_pairs, read_lines,
                     read_pairs, read_token_pairs, require_aligned,
                     truncate_bytes, write_pairs)
from .decoding import MODES, DecodeConfig, beam_search, finalize
from .model import (ENCODERS, Hyperparams, Scorer, attention_trace,
                    load_model, read_model_header, save_model)
from .rouge import (METRICS, evaluate_corpus, format_report, read_token_lines,
                    report_json)
from .training import TrainConfig, TrainingDiverged, train
from .tuning import FeatureWeights, TunedScorer, mert_tune


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _write_lines(path, lines):
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with atomic_open(path) as fh:
            fh.write(text)


def _load_model_and_vocab(args):
    params, hyper = load_model(args.model)
    vocab = Vocab.load(args.vocab)
    if len(vocab) != hyper.vocab_size:
        raise ValueError(f"{args.vocab}: {len(vocab)} entries but the model "
                         f"expects {hyper.vocab_size}")
    return params, hyper, vocab


def _decode_config(args):
    return DecodeConfig(length=args.N, beam=args.beam, mode=args.mode,
                        byte_cap=args.byte_cap,
                        forbid_unk=not getattr(args, "allow_unk", False))


def _sentences(path):
    """One token list per line of `path`; a line with no tokens is refused
    as '<path>:<line>: ...'."""
    sentences = read_token_lines(path)
    for k, tokens in enumerate(sentences, 1):
        if not tokens:
            raise ValueError(f"{path}:{k}: empty line")
    return sentences


def _write_trace(path, params, hyper, results):
    """One block per sentence: a '# sentence i' marker, then one tab-joined
    row of attention weights per generated token (columns = input words)."""
    with atomic_open(path) as fh:
        for i, (x, hyp) in enumerate(results, 1):
            rows = attention_trace(params, hyper, x, list(hyp.tokens))
            fh.write(f"# sentence {i}\n")
            for row in rows:
                fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")


def cmd_preprocess(args):
    raw = read_pairs(args.pairs)
    kept, counts = preprocess_pairs(raw)
    write_pairs(args.out_pairs, kept)
    seqs = [tokens for pair in kept for tokens in pair]
    vocab = Vocab.build(seqs, min_count=args.min_count)
    vocab.save(args.out_vocab)
    for key in ("kept", "empty", "filter1", "filter2", "filter3"):
        print(f"{key} {counts[key]}")
    print(f"vocab {len(vocab)}")


def _training_pairs(path, vocab):
    """The encoded pairs of a tokenized pairs file; a file with none is
    refused as '<path>: holds no pairs'."""
    pairs = encode_pairs(read_token_pairs(path), vocab)
    if not pairs:
        raise ValueError(f"{path}: holds no pairs")
    return pairs


def cmd_train(args):
    vocab = Vocab.load(args.vocab)
    pairs = _training_pairs(args.pairs, vocab)
    if args.valid is not None:
        valid = _training_pairs(args.valid, vocab)
    else:
        # deterministic tail holdout; tiny corpora validate on themselves
        n_valid = max(1, len(pairs) // 10)
        if len(pairs) > n_valid:
            valid, pairs = pairs[-n_valid:], pairs[:-n_valid]
        else:
            valid = pairs
    # the corpora are nonempty and both configs check their fields as they
    # are built, before the output directory is touched, so a rejected run
    # leaves an earlier run's files
    hyper = Hyperparams(vocab_size=len(vocab), embed_dim=args.embed_dim,
                        hidden_dim=args.hidden_dim,
                        context_size=args.context_size,
                        encoder=args.encoder, conv_layers=args.conv_layers,
                        window=args.window)
    config = TrainConfig(hyperparams=hyper, max_epochs=args.epochs,
                         learning_rate=args.lr, batch_size=args.batch_size,
                         seed=args.seed, renorm_max_norm=args.max_norm)
    os.makedirs(args.out_dir, exist_ok=True)
    history_path = os.path.join(args.out_dir, "history.jsonl")
    with open(history_path, "w", encoding="utf-8") as history_fh:
        def checkpoint(epoch, params, record):
            save_model(os.path.join(args.out_dir,
                                    f"epoch-{epoch:03d}.model"),
                       params, hyper)
            history_fh.write(json.dumps(dataclasses.asdict(record),
                                        sort_keys=True) + "\n")
            print(f"epoch {epoch} train_nll {record.train_nll:.6f} "
                  f"valid_nll {record.valid_nll:.6f} "
                  f"valid_ppl {record.valid_perplexity:.6f} "
                  f"lr {record.learning_rate:g}")

        params, history = train(config, pairs, valid,
                                epoch_callback=checkpoint)
    final = os.path.join(args.out_dir, "final.model")
    save_model(final, params, hyper)
    with atomic_open(os.path.join(args.out_dir, "config.txt")) as fh:
        settings = dict(vars(args))
        settings.pop("func")
        settings["vocab_size"] = len(vocab)
        settings["train_pairs"] = len(pairs)
        settings["valid_pairs"] = len(valid)
        for key in sorted(settings):
            fh.write(f"{key}={settings[key]}\n")
    print(f"final {final} valid_ppl {history[-1].valid_perplexity:.6f}")


def _decode_input(args, trace, weights_path=None):
    """Decode the best hypothesis of each --input line, in line order, and
    write their attention rows to `trace` unless it is None; returns the
    vocabulary, the config and the (input ids, hypothesis) pairs."""
    config = _decode_config(args)
    params, hyper, vocab = _load_model_and_vocab(args)
    if trace is not None and hyper.encoder != "attention":
        raise ValueError("--trace requires a model with the attention "
                         f"encoder, not {hyper.encoder!r}")
    weights = (FeatureWeights.load(weights_path)
               if weights_path is not None else None)
    results = []
    for tokens in _sentences(args.input):
        x = vocab.encode(tokens)
        base = Scorer(params, hyper, x)
        scorer = base if weights is None else TunedScorer(base, weights)
        results.append((x, beam_search(scorer, config)[0]))
    if trace is not None:
        _write_trace(trace, params, hyper, results)
    return vocab, config, results


def cmd_decode(args):
    vocab, config, results = _decode_input(args, args.trace, args.weights)
    _write_lines(args.out, [finalize(hyp, config, vocab)
                            for _, hyp in results])


def cmd_trace(args):
    _decode_input(args, args.out)


def cmd_tune(args):
    config = _decode_config(args)
    params, hyper, vocab = _load_model_and_vocab(args)
    inputs = _sentences(args.dev)
    if not inputs:
        raise ValueError(f"{args.dev}: dev set is empty")
    refs = _sentences(args.refs)
    require_aligned(args.refs, refs, len(inputs))
    dev = [(vocab.encode(tokens), [ref]) for tokens, ref in zip(inputs, refs)]
    weights = mert_tune(params, hyper, vocab, dev, config,
                        metric=args.metric, seed=args.seed)
    weights.save(args.out)
    print(f"dev {args.metric} identity {weights.before:.6f} "
          f"tuned {weights.after:.6f}")


def cmd_eval(args):
    report = evaluate_corpus(args.cand, args.refs.split(","),
                             args.metrics.split(","),
                             byte_cap=args.byte_cap,
                             inputs_path=args.inputs)
    print(format_report(report))
    print(report_json(report))


def _prefix_line(line, byte_cap):
    """Longest whole-token prefix that fits the cap; a first token longer
    than the cap is cut to its longest whole-character prefix instead, so
    the cap always holds."""
    text = detokenize(preprocess(line))
    cut = truncate_bytes(text, byte_cap)
    rest = text[len(cut):]
    if not rest or rest.startswith(" "):
        return cut
    return cut.rpartition(" ")[0] or cut


def cmd_baseline(args):
    check_byte_cap(args.byte_cap)
    _write_lines(args.out, [_prefix_line(line, args.byte_cap)
                            for line in read_lines(args.input)])


def cmd_describe(args):
    header = read_model_header(args.model)
    hyper = header["hyperparams"]
    print(f"format_version {header['format_version']}")
    for field in dataclasses.fields(hyper):
        print(f"{field.name} {getattr(hyper, field.name)}")
    print(f"tensors {len(header['tensors'])}")
    for name in sorted(header["tensors"]):
        dims = "x".join(str(d) for d in header["tensors"][name]) or "scalar"
        print(f"  {name} {dims}")


def _build_parser():
    parser = _Parser(prog="attnsum",
                     description="attention-based sentence summarization")
    parser.add_argument(
        "--version", action="version",
        version=(f"attnsum {__version__} (model format "
                 f"{MODEL_FORMAT_VERSION}, corpus format "
                 f"{CORPUS_FORMAT_VERSION})"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="tokenize, filter, and index raw pairs")
    p.add_argument("--pairs", required=True,
                   help="raw headline<TAB>article lines")
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--min-count", type=int, default=5)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a summarization model")
    p.add_argument("--pairs", required=True,
                   help="tokenized headline<TAB>article lines")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--valid", help="held-out pairs "
                   "(default: a 10%% tail split of --pairs)")
    p.add_argument("--encoder", choices=ENCODERS, default="attention")
    p.add_argument("--embed-dim", type=int, default=50)
    p.add_argument("--hidden-dim", type=int, default=100)
    p.add_argument("--context-size", type=int, default=5)
    p.add_argument("--conv-layers", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-norm", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    def add_decode_flags(p):
        p.add_argument("--model", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--N", type=int, required=True,
                       help="summary length in tokens")
        p.add_argument("--beam", type=int, default=8)
        p.add_argument("--mode", choices=MODES, default="abstractive")
        p.add_argument("--byte-cap", type=int)

    p = sub.add_parser("decode", help="generate summaries")
    add_decode_flags(p)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--allow-unk", action="store_true",
                   help="let the unknown-word symbol be generated")
    p.add_argument("--weights", help="tuned feature weights JSON")
    p.add_argument("--trace",
                   help="write per-sentence attention rows as TSV")
    p.add_argument("--out", help="default: stdout")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trace",
                       help="decode and export attention heatmap rows")
    add_decode_flags(p)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--out", required=True, help="trace TSV path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("tune", help="fit re-ranking feature weights")
    add_decode_flags(p)
    p.add_argument("--dev", required=True, help="input sentences")
    p.add_argument("--refs", required=True, help="aligned references")
    p.add_argument("--metric", choices=METRICS, default="rouge1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="weights JSON path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("eval", help="score candidates against references")
    p.add_argument("--cand", required=True)
    p.add_argument("--refs", required=True,
                   help="reference file, or comma-separated files")
    p.add_argument("--metrics", default="rouge1,rouge2,rougeL")
    p.add_argument("--byte-cap", type=int)
    p.add_argument("--inputs",
                   help="paired input sentences; enables ext_pct")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline",
                       help="whole-token prefix of each input")
    p.add_argument("--input", required=True)
    p.add_argument("--byte-cap", type=int, default=75)
    p.add_argument("--out", help="default: stdout")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("describe", help="print a model file's header")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_describe)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, struct.error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
