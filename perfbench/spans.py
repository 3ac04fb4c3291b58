"""In-memory span tracing around the calls into the program's modules.

A span records (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 at top level) and `op` the index of the benchmark
operation it belongs to. A span's self time is its duration minus the part
of its interval that its child spans cover.

Spans are opened in two ways: around the benchmark's own calls
(`Tracer.span`), and by wrappers installed where the program looks up its
own names (`Tracer.installed`), which the benchmark removes again before it
checks outputs. Nothing in the program is edited.
"""

import collections
import contextlib
import functools
import json
from time import perf_counter

NO_PARENT = -1


class NullTracer:
    """Stands in for a Tracer in untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def begin_op(self, label):
        pass

    def beam_search(self, search):
        return search


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.ops = []  # label of each operation, by op index
        self.counts = collections.Counter()
        self._stack = []

    def begin_op(self, label):
        self.ops.append(label)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else NO_PARENT
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent,
                           len(self.ops) - 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, on_call=None):
        """fn inside a span; on_call(args, kwargs) runs first, untimed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def beam_search(self, search):
        """search(scorer, config, step_hook=None) inside a span, counting the
        candidates it ranks and the survivors it keeps at every step."""
        from attnsum.decoding import candidate_ids

        counts = self.counts

        @functools.wraps(search)
        def traced(scorer, config, step_hook=None):
            n_cands = len(candidate_ids(scorer, config))
            parents = 1  # every search starts from the empty hypothesis

            def hook(step, beam):
                nonlocal parents
                counts["decoding.candidates_ranked"] += parents * n_cands
                counts["decoding.survivors"] += len(beam)
                parents = len(beam)
                if step_hook is not None:
                    step_hook(step, beam)

            with self.span("decoding.beam_search"):
                return search(scorer, config, step_hook=hook)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's functions where the program looks them up;
        restore the originals on exit."""
        from attnsum import model, training, tuning

        counts = self.counts

        def count_step_scores(args, kwargs):
            scorer, contexts = args[0], args[1]
            k = len(contexts)
            counts["model.step_scores.rows"] += k
            flop, nbytes = step_scores_cost(scorer.hyper, len(scorer.x), k)
            counts["model.step_scores.flop"] += flop
            counts["model.step_scores.bytes"] += nbytes

        def count_backward(args, kwargs):
            counts["training.tokens"] += len(args[2].target)

        patches = [
            (training, "make_batch", "model.make_batch", None),
            (training, "backward", "model.backward", count_backward),
            (training, "nll", "training.nll", None),
            (training, "renormalize_embeddings", "training.renormalize",
             None),
            (model, "forward", "model.forward", None),
            (model, "log_softmax_rows", "numerics.log_softmax_rows", None),
            (model, "softmax_rows", "numerics.softmax_rows", None),
            (model.Scorer, "step_scores", "model.step_scores",
             count_step_scores),
            (tuning.TunedScorer, "step_scores", "tuning.tuned_scorer", None),
            (tuning, "sequence_features", "tuning.sequence_features", None),
            (tuning, "instance_score", "rouge.instance_score", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in patches]
        saved.append((tuning, "beam_search", tuning.beam_search))
        try:
            for owner, attr, name, on_call in patches:
                setattr(owner, attr,
                        self.wrap(getattr(owner, attr), name, on_call))
            tuning.beam_search = self.beam_search(tuning.beam_search)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op label."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                label = self.ops[op] if op >= 0 else None
                fh.write(json.dumps([name, start, end, parent, label]) + "\n")


def step_scores_cost(hyper, input_len, k):
    """(flop, bytes) of one Scorer.step_scores call on k contexts, computed
    from tensor sizes: the dense products, the log-softmax, and for the
    attention encoder the per-context attention over input positions. Bytes
    count each weight read once and each (k, V) result written once."""
    v, d, h, c = (hyper.vocab_size, hyper.embed_dim, hyper.hidden_dim,
                  hyper.context_size)
    flop = 2 * k * (c * d * h + h * v) + 4 * k * v
    words = h * c * d + v * h + 2 * v + 2 * k * v
    if hyper.encoder == "attention":
        flop += 2 * k * (c * d * h + 2 * input_len * h + h * v)
        words += h * c * d + v * h + v + 2 * input_len * h
    elif hyper.encoder != "none":
        flop += k * v
        words += v
    return flop, 8 * words


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span."""
    children = collections.defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] != NO_PARENT:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans, ops=None, label=None):
    """name -> {"calls", "total", "self"} seconds over the spans of the ops
    carrying `label` (every span when label is None)."""
    selfs = self_times(spans)
    table = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, op = span
        if label is not None and (op < 0 or ops[op] != label):
            continue
        row = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["self"] += own
        row["total"] += end - start
    return table
