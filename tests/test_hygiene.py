"""Dead-code and layering checks on the package source, from the standard library alone.

Three kinds of leftovers are refused: an import that its scope never
reads, a module-level private name (``_x``) that nothing in the package
refers to outside its own definition, and a module-level public function
or class that nothing in the package refers to, unless the package root
exports it or the benchmark's tracer wraps it.  Removing a function tends
to leave such names behind.

Every file format lives in ``cli.py``: no other module imports ``json``
or calls ``open``.  Only ``cli.py`` talks to the user: no other module
imports ``warnings``, calls ``print`` or uses ``sys.stdout`` or
``sys.stderr``.

Each subclass of ``CorrcountError``, at any depth, is raised somewhere in
the package, so that a class whose cause another class took over does
not linger.

Every numeric field is checked by one rule, ``core._numbers``: no
``Record`` subclass's ``__init__``, nor ``char_fn``, converts the items of
an input by ``float`` or ``complex`` itself.

The CLI's flag table holds no dead entry: each flag is taken by some
command, each config key and JSON type is one the config reader knows,
and each override is of a flag its command takes.  Each flag a command
takes is read by its handler.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from corrcount import cli

from conftest import load_tracer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrcount"
SOURCES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def references(node) -> Counter:
    """Names read under ``node``: loaded names and attributes."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def exported(tree) -> set[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(tree) -> list[str]:
    """Names bound by an import that nothing in the import's scope reads.

    The scope is the innermost enclosing function, or the module, where
    ``__all__`` counts as a read.
    """
    scope_of = {}
    for scope in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(scope):
                scope_of[id(sub)] = scope
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = scope_of.get(id(node), tree)
        read = references(scope)
        if scope is tree:
            read.update(exported(tree))
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not read[name]:
                unused.append(f"{name} (line {node.lineno})")
    return unused


def definitions():
    """(module, name, defining node) for each name bound at module level."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [e.id for t in targets for e in ast.walk(t) if isinstance(e, ast.Name)]
            else:
                continue
            for name in names:
                yield module, name, node


# Another module's ``from .x import _name`` refers to ``_name`` too.
PACKAGE_REFERENCES = sum(
    (
        references(tree)
        + Counter(
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        for tree in TREES.values()
    ),
    Counter(),
)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    assert unused_imports(TREES[module]) == []


def unreferenced(node, name) -> bool:
    return PACKAGE_REFERENCES[name] <= references(node)[name]


def test_every_private_name_is_referenced():
    dead = [
        f"{module}:{name}"
        for module, name, node in definitions()
        if name.startswith("_") and not name.startswith("__") and unreferenced(node, name)
    ]
    assert dead == []


def test_every_public_function_and_class_is_referenced():
    entry_points = exported(TREES["__init__.py"]) | {t.function for t in load_tracer().TARGETS}
    dead = [
        f"{module}:{name}"
        for module, name, node in definitions()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not name.startswith("_")
        and name not in entry_points
        and unreferenced(node, name)
    ]
    assert dead == []


def imported_modules(node) -> list[str]:
    """The top-level names of the modules an import node imports from."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


def file_access(tree) -> list[str]:
    """The imports of ``json`` and the calls of an ``open`` in a module."""
    found = []
    for node in ast.walk(tree):
        if "json" in imported_modules(node):
            found.append(f"json (line {node.lineno})")
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if name == "open":  # open(...), or io.open(...) and the like
                found.append(f"open (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", sorted(set(TREES) - {"cli.py"}))
def test_only_the_cli_reads_or_writes_a_file_format(module):
    assert file_access(TREES[module]) == []


def test_the_checks_see_a_leftover():
    tree = ast.parse(
        "import math\n"
        "from .core import is_int_in, Pmf\n"
        "def _dead():\n    return _dead()\n"
        "def f() -> Pmf:\n    import json\n    def g():\n        import sys\n"
        "    return math.pi, sys\n"
    )
    assert unused_imports(tree) == ["is_int_in (line 2)", "json (line 6)", "sys (line 8)"]
    dead = tree.body[2]
    assert references(tree)["_dead"] == references(dead)["_dead"] == 1


def user_output(tree) -> list[str]:
    """The imports of ``warnings``, the calls of ``print`` and the uses of
    ``sys.stdout`` or ``sys.stderr`` in a module."""
    found = []
    for node in ast.walk(tree):
        if "warnings" in imported_modules(node):
            found.append(f"warnings (line {node.lineno})")
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"sys.{a.name} (line {node.lineno})" for a in node.names
                      if a.name in ("stdout", "stderr")]
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            found.append(f"print (line {node.lineno})")
        if (
            isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and getattr(node.value, "id", None) == "sys"
        ):
            found.append(f"sys.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", sorted(set(TREES) - {"cli.py"}))
def test_only_the_cli_talks_to_the_user(module):
    assert user_output(TREES[module]) == []


def test_the_output_check_sees_warnings_print_and_sys_streams():
    tree = ast.parse(
        "import warnings\n"
        "from sys import stderr\n"
        "def note(text):\n    print(text)\n"
        "    sys.stdout.write(text)\n    err = sys.stderr\n"
        "    from warnings import warn\n"
    )
    assert user_output(tree) == [  # in the breadth-first order of ast.walk
        "warnings (line 1)", "sys.stderr (line 2)", "warnings (line 7)", "print (line 4)",
        "sys.stderr (line 6)", "sys.stdout (line 5)",
    ]


def test_the_format_check_sees_json_and_open():
    tree = ast.parse(
        "class Report:\n    def to_json(self):\n        import json\n"
        "        return json.dumps({})\n"
        "from json import dumps\n"
        "def save(path):\n    with open(path) as fh, io.open(path) as raw:\n        pass\n"
    )
    assert file_access(tree) == [
        "json (line 5)", "json (line 3)", "open (line 7)", "open (line 7)"
    ]


def subclasses(trees, root: str) -> set[str]:
    """The names of the classes in ``trees`` that derive from ``root``, at any depth."""
    classes = [
        node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    found = {root}
    while True:
        more = {
            c.name for c in classes
            if any(getattr(b, "id", getattr(b, "attr", None)) in found for b in c.bases)
        }
        if more <= found:
            return found - {root}
        found |= more


def unraised_errors(trees) -> list[str]:
    """The subclasses of ``CorrcountError``, at any depth, that no ``raise`` names."""
    errors = subclasses(trees, "CorrcountError")
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(errors - raised)


def test_every_error_class_is_raised():
    assert unraised_errors(TREES.values()) == []


def test_the_raise_check_sees_a_dead_error_class():
    trees = [
        ast.parse(
            "class CorrcountError(Exception):\n    pass\n"
            "class Shape(CorrcountError):\n    pass\n"
            "class Deep(Shape):\n    pass\n"
            "class Dead(CorrcountError):\n    pass\n"
            "class DeadDeep(Dead):\n    pass\n"
            "class Other(Exception):\n    pass\n"
        ),
        ast.parse(
            "def f(x):\n    if x:\n        raise Shape('x')\n"
            "    raise core.Deep\n"
            "def g():\n    raise Other from None\n"
        ),
    ]
    assert unraised_errors(trees) == ["Dead", "DeadDeep"]


def per_item_conversions(trees) -> list[str]:
    """The per-item ``float``/``complex`` conversions in a record's ``__init__`` or ``char_fn``.

    A conversion is ``map(float, ...)`` or ``map(complex, ...)``, or a call
    of ``float`` or ``complex`` inside a comprehension or a for loop.
    """
    records = subclasses(trees, "Record")
    scanned = [
        (f"{cls.name}.__init__", fn)
        for tree in trees for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in records
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    ] + [
        (fn.name, fn) for tree in trees for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "char_fn"
    ]
    convert = ("float", "complex")
    found = []
    for where, fn in scanned:
        calls = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
                and getattr(node.args[0], "id", None) in convert
            ):
                calls.add((node.lineno, f"map({node.args[0].id}, ...)"))
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                                 ast.For)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in convert:
                        calls.add((sub.lineno, f"{sub.func.id}(...)"))
        found += [f"{where}: {call} (line {line})" for line, call in sorted(calls)]
    return found


def test_every_numeric_field_is_read_by_the_one_rule():
    assert per_item_conversions(TREES.values()) == []


def test_the_conversion_check_sees_a_per_item_conversion():
    tree = ast.parse(
        "class Record:\n    pass\n"
        "class Table(Record):\n    def __init__(self, values):\n"
        "        self.v = tuple(map(float, values))\n"
        "class Deep(Table):\n    def __init__(self, xs, y):\n"
        "        a = [float(x) for x in xs]\n        b = float(y)\n"
        "        for x in xs:\n            complex(x)\n"
        "class Other:\n    def __init__(self, xs):\n        self.v = list(map(float, xs))\n"
        "def char_fn(model, grid):\n"
        "    return tuple(map(complex, grid)), {float(u): u for u in grid}\n"
        "def helper(xs):\n    return [float(x) for x in xs]\n"
    )
    assert per_item_conversions([tree]) == [
        "Table.__init__: map(float, ...) (line 5)",
        "Deep.__init__: float(...) (line 8)",
        "Deep.__init__: complex(...) (line 11)",
        "char_fn: float(...) (line 16)",
        "char_fn: map(complex, ...) (line 16)",
    ]


def table_faults(flags, commands, overrides, json_types) -> list[str]:
    """The dead or doubled entries of the CLI's flag and command tables."""
    taken = [(c, flag) for c, (_, _, names) in commands.items() for flag in names.split()]
    keys = Counter(key for key, _, _ in flags.values())
    return (
        [f"{flag} is taken by no command" for flag in flags if flag not in {f for _, f in taken}]
        + [f"{c} takes {flag}, which is not in the table" for c, flag in taken
           if flag not in flags]
        + [f"config key {key!r} appears {n} times" for key, n in keys.items() if n > 1]
        + [f"{flag} has JSON type {kind!r}" for flag, (_, kind, _) in flags.items()
           if kind not in json_types]
        + [f"{c} overrides {flag}, which it does not take" for c, flag in overrides
           if (c, flag) not in taken]
    )


def test_the_flag_table_has_no_dead_entry():
    assert table_faults(cli._FLAGS, cli._COMMANDS, cli._OVERRIDES, cli._JSON_TYPES) == []


def test_the_table_check_sees_a_dead_entry():
    flags = {
        "--a": ("a", "string", {}), "--b": ("a", "integer", {}), "--dead": ("d", "text", {}),
    }
    commands = {"x": ("help", None, "--a --b --gone")}
    overrides = {("x", "--dead"): {}}
    assert table_faults(flags, commands, overrides, {"string": (str,), "integer": (int,)}) == [
        "--dead is taken by no command",
        "x takes --gone, which is not in the table",
        "config key 'a' appears 2 times",
        "--dead has JSON type 'text'",
        "x overrides --dead, which it does not take",
    ]


def attributes_read(tree, function: str, param: str, seen=None) -> set[str]:
    """The attributes of ``param`` that a module-level function of ``tree`` reads.

    A read in a module-level function that ``function`` passes ``param``
    to, by position or by keyword, counts too.
    """
    seen = set() if seen is None else seen
    if (function, param) in seen:
        return set()
    seen.add((function, param))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for node in ast.walk(functions[function]):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == param
        ):
            read.add(node.attr)
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions):
            continue
        callee = functions[node.func.id]
        params = [a.arg for a in callee.args.posonlyargs + callee.args.args]
        passed = [p for p, arg in zip(params, node.args) if getattr(arg, "id", None) == param]
        passed += [k.arg for k in node.keywords if getattr(k.value, "id", None) == param]
        for name in passed:
            read |= attributes_read(tree, callee.name, name, seen)
    return read


def unread_flags(tree, commands) -> list[str]:
    """The flags a command takes whose ``args.<dest>`` its handler never reads.

    ``commands`` maps each command to its handler's name and its flags.
    """
    return [
        f"{command} takes {flag}, which {handler} never reads"
        for command, (handler, flags) in commands.items()
        for flag in flags.split()
        if flag.lstrip("-").replace("-", "_") not in attributes_read(tree, handler, "args")
    ]


def test_every_flag_is_read_by_its_handler():
    commands = {c: (func.__name__, flags) for c, (_, func, flags) in cli._COMMANDS.items()}
    assert unread_flags(TREES["cli.py"], commands) == []


def test_the_read_check_sees_a_dead_flag():
    tree = ast.parse(
        "def _model(ns, need):\n    return ns.c, ns.n_max\n"
        "def _show(x, *, opts):\n    return opts.fmt\n"
        "def _cmd(args):\n    args.seed = 1\n"
        "    return _model(args, True), _show(0, opts=args), print(args)\n"
    )
    assert unread_flags(tree, {"x": ("_cmd", "--c --n-max --fmt --seed --dead")}) == [
        "x takes --seed, which _cmd never reads",
        "x takes --dead, which _cmd never reads",
    ]
