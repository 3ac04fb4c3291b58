"""Every top-level function and class of the package has a caller outside
the tests, or a stated reason to stay without one.

A name counts as called when some module of `src/attnsum/` or of
`perfbench/` (its own test module aside) mentions it as a name, an
attribute, or a string constant equal to it, as in getattr(module, "name").
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "attnsum"

# names that only tests call, each with the reason it stays
UNCALLED = {
    "finite_diff_grad": "oracle: the gradient checks' central differences",
    "relative_grad_error": "oracle: the gradient checks' error measure",
    "viterbi_exact": "oracle: exact search that beam search is held to",
    "greedy": "oracle: beam search at beam size 1 is held to it",
    "tuned_score": "oracle: the whole-sequence tuned score",
    "perplexity": "computes acceptance criterion 6's metric",
    "cond_dist": "public model API: the next-token distribution",
    "enc_bow": "public model API: the bag-of-words encoder",
    "enc_conv": "public model API: the convolutional encoder",
    "enc_attention": "public model API: the attention encoder",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def top_level_names():
    """(module.name, name) of every top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name


def referenced_names():
    paths = sorted(PACKAGE.glob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").glob("*.py"))
        if path.name != "test_perfbench.py"]
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
    return names


def test_every_top_level_name_has_a_caller():
    referenced = referenced_names()
    uncalled = [qualified for qualified, name in top_level_names()
                if name not in referenced and name not in UNCALLED]
    assert uncalled == []


def test_uncalled_names_are_defined_and_still_uncalled():
    defined = {name for _, name in top_level_names()}
    assert set(UNCALLED) <= defined
    assert not set(UNCALLED) & referenced_names()
