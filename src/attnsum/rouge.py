"""Recall-oriented ROUGE scoring: clipped n-gram recall (ROUGE-1/2),
longest-common-subsequence recall (ROUGE-L), multi-reference max, candidate
byte capping, and the extractive-percentage diagnostic.

Candidates are capped by byte length before scoring (detokenize, cut at the
cap without splitting a multi-byte character, re-split); references are
never capped. Corpus scores are plain means over instances, so any corpus
score decomposes into per-instance scores (the property the weight tuner
relies on).
"""

import json
from collections import Counter
from dataclasses import dataclass

from .corpus import (check_byte_cap, detokenize, preprocess, read_lines,
                     require_aligned, truncate_bytes)

METRICS = ("rouge1", "rouge2", "rougeL")


@dataclass
class EvalInstance:
    candidate: list  # token list
    references: list  # one or more token lists

    def __post_init__(self):
        if not self.references:
            raise ValueError("instance needs at least one reference")


def _capped(tokens, byte_cap):
    if byte_cap is None:
        return list(tokens)
    return truncate_bytes(detokenize(tokens), byte_cap).split()


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _best_recall(usable, recall, refusal):
    """Max of recall(ref) over the usable references; with none usable,
    raises ValueError(refusal)."""
    if not usable:
        raise ValueError(refusal)
    return max(map(recall, usable))


def rouge_n(instance, n, byte_cap=None):
    """Max over references of clipped n-gram recall; references with fewer
    than n tokens are skipped (their denominator would be zero)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cand = _ngram_counts(_capped(instance.candidate, byte_cap), n)

    def recall(ref):
        clipped = sum(min(count, cand[gram])
                      for gram, count in _ngram_counts(ref, n).items())
        return clipped / (len(ref) - n + 1)

    return _best_recall([ref for ref in instance.references if len(ref) >= n],
                        recall, f"every reference is shorter than n={n}")


def _lcs_len(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ai in a:
        cur = [0]
        for j, bj in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if ai == bj
                       else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(instance, byte_cap=None):
    """Max over references of LCS(candidate, reference) / |reference|."""
    cand = _capped(instance.candidate, byte_cap)
    return _best_recall([ref for ref in instance.references if ref],
                        lambda ref: _lcs_len(cand, ref) / len(ref),
                        "every reference is empty")


def instance_score(instance, metric, byte_cap=None):
    if metric == "rouge1":
        return rouge_n(instance, 1, byte_cap)
    if metric == "rouge2":
        return rouge_n(instance, 2, byte_cap)
    if metric == "rougeL":
        return rouge_l(instance, byte_cap)
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def corpus_score(instances, metric, byte_cap=None, refs_name=None):
    """Mean instance score; the corpus metric optimized by weight tuning.
    With refs_name, the refusal of the k-th instance (from 1) reads
    '<refs_name>:<k>: <reason>'."""
    if not instances:
        raise ValueError("no instances to score")
    total = 0
    for k, inst in enumerate(instances, 1):
        try:
            total += instance_score(inst, metric, byte_cap)
        except ValueError as exc:
            if refs_name is None:
                raise
            raise ValueError(f"{refs_name}:{k}: {exc}") from None
    return total / len(instances)


def extractive_pct(candidates, inputs, byte_cap=None):
    """Percentage of candidate tokens (after capping) that occur in the
    paired input sentence, pooled over the corpus."""
    if len(candidates) != len(inputs):
        raise ValueError("candidates and inputs are misaligned")
    matched = total = 0
    for cand, inp in zip(candidates, inputs):
        tokens = _capped(cand, byte_cap)
        types = set(inp)
        total += len(tokens)
        matched += sum(1 for t in tokens if t in types)
    return 100.0 * matched / total if total else 0.0


def read_token_lines(path):
    """One tokenized sentence per line, via the shared preprocessor."""
    return [preprocess(line) for line in read_lines(path)]


def evaluate_corpus(cand_path, ref_paths, metrics, byte_cap=None,
                    inputs_path=None):
    """Score a candidate file against reference file(s); returns the report
    as a plain dict. All files must have one aligned sentence per line. A
    line whose references all refuse a metric is refused as
    '<ref paths, comma-joined>:<line>: <reason>'."""
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"choose from {METRICS}")
    check_byte_cap(byte_cap)
    candidates = read_token_lines(cand_path)
    if not candidates:
        raise ValueError(f"{cand_path}: no instances to score")
    ref_files = [read_token_lines(p) for p in ref_paths]
    for path, refs in zip(ref_paths, ref_files):
        require_aligned(path, refs, len(candidates))
    instances = [EvalInstance(candidate=cand,
                              references=[refs[i] for refs in ref_files])
                 for i, cand in enumerate(candidates)]
    report = {"instances": len(instances), "byte_cap": byte_cap}
    refs_name = ",".join(map(str, ref_paths))
    for metric in metrics:
        report[metric] = corpus_score(instances, metric, byte_cap, refs_name)
    if inputs_path is not None:
        inputs = read_token_lines(inputs_path)
        require_aligned(inputs_path, inputs, len(candidates))
        report["ext_pct"] = extractive_pct(candidates, inputs, byte_cap)
    return report


def format_report(report):
    """Aligned-column text rendering of an evaluate_corpus report."""
    rows = [("instances", str(report["instances"])),
            ("byte_cap", str(report["byte_cap"]))]
    for metric in METRICS:
        if metric in report:
            rows.append((metric, f"{report[metric]:.6f}"))
    if "ext_pct" in report:
        rows.append(("ext_pct", f"{report['ext_pct']:.2f}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def report_json(report):
    """Deterministic JSON rendering of a report."""
    return json.dumps(report, sort_keys=True)
