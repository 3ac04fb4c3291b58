"""Every top-level function and class of the package has a caller outside
the tests, and every parameter with a default is set by some caller, or
each has a stated reason to stay without one. Every name that a module
imports at module level is used by that module, unless the import is
marked `# noqa: F401`. Only the functions named in OPENERS call `open`.

A name counts as called when some module of `src/attnsum/` or of
`perfbench/` (its own test module aside) mentions it as a name, an
attribute, or a string constant equal to it, as in getattr(module, "name").
A parameter counts as set when some call in those modules, to a name or
attribute spelled as its function (its class, for __init__), names it or
passes enough positional arguments to reach it, self and cls not counted.
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

# parameters with a default that no caller sets, each with the reason it
# stays
UNSET = {
    "cli.main.argv": "the tests' seam: they call main with an argument list",
    "decoding.beam_search.step_hook": "perfbench's traced decode counts "
                                      "every step through it",
    "numerics.finite_diff_grad.eps": "oracle: the central-difference step",
    "numerics.relative_grad_error.floor": "oracle: the error measure's floor",
}

# the functions that call `open`, each with the reason it may; every other
# file is read or written through one of them
OPENERS = {
    "corpus.atomic_open": "the atomic writer of every output but the "
                          "history",
    "corpus.text_file": "the one opener of text files, which names a file "
                        "that is not UTF-8",
    "model._read_model": "the one reader of model files, which names the "
                         "file in every refusal",
    "cli.cmd_train": "history.jsonl, appended once per epoch, so not "
                     "atomic",
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


def caller_paths():
    return sorted(PACKAGE.glob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").glob("*.py"))
        if path.name != "test_perfbench.py"]


def referenced_names():
    names = set()
    for path in caller_paths():
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


def defaulted_params():
    """(module[.class].function.param, callee name, positional index or
    None) of every parameter with a default, in functions and methods at
    any depth; the index leaves out self and cls, and is None for
    keyword-only parameters."""
    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, module, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from params_of(child, module, cls)
                yield from visit(child, module, None)
            else:
                yield from visit(child, module, cls)

    def params_of(fn, module, cls):
        args = fn.args
        positional = args.posonlyargs + args.args
        if cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list):
            positional = positional[1:]
        callee = cls if fn.name == "__init__" else fn.name
        where = ".".join(filter(None, (module, cls, fn.name)))
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield f"{where}.{arg.arg}", callee, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{where}.{arg.arg}", callee, None

    for path in sorted(PACKAGE.glob("*.py")):
        yield from visit(parse(path), path.stem, None)


def calls():
    """callee name -> list of (positional count, keyword names) of every
    call in the caller modules; a *args reaches every position and a
    **kwargs names every parameter, so each counts as infinite or None."""
    found = {}
    for path in caller_paths():
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            found.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return found


def unset_params():
    by_callee = calls()
    unset = []
    for qualified, callee, index in defaulted_params():
        param = qualified.rsplit(".", 1)[1]
        if not any(keywords is None or param in keywords
                   or (index is not None and n_pos > index)
                   for n_pos, keywords in by_callee.get(callee, ())):
            unset.append(qualified)
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert [q for q in unset_params() if q not in UNSET] == []


def test_unset_parameters_are_defined_and_still_unset():
    defined = {qualified for qualified, _, _ in defaulted_params()}
    assert set(UNSET) <= defined
    assert set(UNSET) <= set(unset_params())


def unused_imports():
    """module.name of every name bound by a module-level import that its
    module never reads; an import statement with `# noqa: F401` on any of
    its lines is left out."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def openers():
    """module[.class].function of every function that calls `open` or an
    `open` attribute, such as `os.open`; a nested function counts as its
    enclosing one."""
    found = set()

    def visit(node, where, in_function):
        for child in ast.iter_child_nodes(node):
            inner, function = where, in_function
            if isinstance(child, ast.Call) and "open" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.add(where)
            elif not in_function and isinstance(child, ast.ClassDef):
                inner = f"{where}.{child.name}"
            elif not in_function and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner, function = f"{where}.{child.name}", True
            visit(child, inner, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(parse(path), path.stem, False)
    return found


def test_only_the_named_functions_open_files():
    assert openers() == set(OPENERS)
