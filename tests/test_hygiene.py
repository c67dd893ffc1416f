"""Source hygiene of the package: every imported name is read somewhere,
nothing is imported from outside the standard library, numpy and vcgen, the
inference modules import nothing of the tape, every function, class, method
and stored attribute is read by package code, every exception class is an
InputError, only ``vcgen.files`` writes JSON or opens a file to write, and
only ``vcgen.losses`` draws dropout."""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vcgen"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including a quoted one such as
    ``"Model"`` or ``"PaddedBatch | Sequence"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads; imports
    on a line marked ``# noqa: F401`` count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    unread = unread_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert not unread, f"{module}: imported but never read: {unread}"


def test_unread_import_is_found_and_noqa_exempts_it():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .model import Model\n"
        "def f(m: \"Model\") -> Sequence:\n"
        "    return m\n"
    )
    assert unread_imports(source) == [(1, "os")]


ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "vcgen"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import whose top-level package is
    neither in the standard library nor numpy nor vcgen."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_stdlib_numpy_and_vcgen(module):
    foreign = foreign_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert not foreign, f"{module}: imports outside the standard library, numpy and vcgen: {foreign}"


def test_foreign_import_is_found_anywhere_in_the_module():
    source = (
        "import json, numpy as np\n"
        "from . import tensor\n"
        "from vcgen.model import Model\n"
        "def f():\n"
        "    from scipy.special import erf\n"
        "    import yaml\n"
    )
    assert foreign_imports(source) == [(5, "scipy.special"), (6, "yaml")]


# Inference modules: they score and decode on the array ops alone.
INFERENCE_MODULES = ("data.py", "generate.py")


def tape_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import from ``vcgen.tensor`` that could reach the
    tape: any name but the ``ARRAYS`` op table and the ``*_kernel`` array
    functions (so ``Tensor``, ``Tape``, ``TAPE`` and every tape op), and the
    module itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "vcgen.tensor"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".tensor", "vcgen.tensor"):
                found += [
                    (node.lineno, alias.name)
                    for alias in node.names
                    if alias.name != "ARRAYS" and not alias.name.endswith("_kernel")
                ]
            elif module in (".", "vcgen"):
                found += [(node.lineno, alias.name) for alias in node.names if alias.name == "tensor"]
    return found


@pytest.mark.parametrize("module", INFERENCE_MODULES)
def test_inference_module_imports_no_tape(module):
    found = tape_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert not found, f"{module}: imports from vcgen.tensor beyond ARRAYS and the kernels: {found}"


def test_tape_import_is_found_in_every_form():
    source = (
        "from .tensor import ARRAYS, Tensor, log_softmax_kernel, log_softmax\n"
        "from . import tensor, vocab\n"
        "import vcgen.tensor as t\n"
        "def f():\n"
        "    from vcgen.tensor import Tape\n"
        "    from vcgen import tensor\n"
        "    from .tensor import TAPE, linear_kernel\n"
    )
    found = [(1, "Tensor"), (1, "log_softmax"), (2, "tensor"), (3, "vcgen.tensor"), (5, "Tape"), (6, "tensor"),
             (7, "TAPE")]
    assert sorted(tape_imports(source)) == found


def _definitions(tree: ast.Module):
    """(dotted name, bare name) of each top-level function and class and
    each non-dunder method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return read


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each definition (see ``_definitions``) that no
    module of ``sources`` (module name -> source) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return [
        f"{module}.{dotted}"
        for module, tree in trees.items()
        for dotted, name in _definitions(tree)
        if name not in read
    ]


# Definitions the package keeps though no package code reads them.
UNREAD_ALLOWED = {
    "cli._Parser.error": "argparse calls it",
    "generate.generate": "the benchmark's decode probes wrap it (ROADMAP item 8)",
    "optim.AdamW.state_arrays": "optimizer state for resumable training (ROADMAP item 5)",
    "optim.AdamW.load_state_arrays": "optimizer state for resumable training (ROADMAP item 5)",
}


def test_package_reads_every_definition_it_makes():
    """A function, class or method that only tests read belongs under tests/."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    unread = unread_definitions(sources)
    assert sorted(set(unread) - set(UNREAD_ALLOWED)) == []
    assert sorted(set(UNREAD_ALLOWED) - set(unread)) == [], "read now: drop it from UNREAD_ALLOWED"


def test_unread_definition_is_found_and_any_module_may_read_it():
    sources = {
        "a": (
            "import numpy as np\n"
            "from .b import helper\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.v = helper()\n"
            "    def shown(self):\n"
            "        return self.v\n"
            "    def hidden(self):\n"
            "        return np.zeros(1)\n"
            "def orphan():\n"
            "    def inner():\n"
            "        return Box().shown()\n"
            "    return inner\n"
        ),
        "b": "def helper():\n    return 1\n",
    }
    assert unread_definitions(sources) == ["a.Box.hidden", "a.orphan"]


def _stored_attributes(tree: ast.Module):
    """(``Class.x``, ``x``) of each field of a dataclass and each ``self.x``
    that a method of a class assigns."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {d.func if isinstance(d, ast.Call) else d for d in node.decorator_list}
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}", sub.target.id
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield f"{node.name}.{sub.attr}", sub.attr


def unread_attributes(sources: dict[str, str]) -> list[str]:
    """``module.Class.x`` of each stored attribute (see ``_stored_attributes``)
    that no module of ``sources`` reads, as ``.x`` or as the string ``"x"``
    (config sections are read through ``getattr``)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(
        {f"{module}.{dotted}" for module, tree in trees.items() for dotted, name in _stored_attributes(tree)
         if name not in read}
    )


def test_package_reads_every_attribute_it_stores():
    """A dataclass field or ``self.x`` that only tests read is dead state."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_attributes(sources) == []


def test_unread_attribute_is_found_and_a_string_reads_it():
    sources = {
        "a": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Section:\n"
            "    shown: int = 0\n"
            "    named: int = 0\n"
            "    hidden: int = field(default=0)\n"
            "class Box:\n"
            "    size = 3\n"
            "    def __init__(self, other):\n"
            "        self.v, self.w = 1, 2\n"
            "        self.count = 0\n"
            "        self.count += 1\n"
            "        other.x = 1\n"
            "    def total(self, section):\n"
            "        return self.v + section.shown + getattr(section, 'named')\n"
        ),
    }
    assert unread_attributes(sources) == ["a.Box.count", "a.Box.w", "a.Section.hidden"]


def _base_names(node: ast.ClassDef) -> list[str]:
    """The last dotted name of each base: ``ValueError``, ``InputError`` for
    ``errors.InputError``."""
    return [b.attr if isinstance(b, ast.Attribute) else b.id for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))]


def exceptions_outside_input_error(sources: dict[str, str]) -> list[str]:
    """``module.Class`` of each exception class in ``sources`` (module name ->
    source), nested ones included, that does not derive from ``InputError``.
    A class is an exception if it derives, through classes of ``sources``,
    from a built-in exception."""
    bases: dict[str, list[str]] = {}
    module_of: dict[str, str] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = _base_names(node)
                module_of[node.name] = module

    def ancestors(name: str) -> set[str]:
        found, todo = set(), list(bases[name])
        while todo:
            base = todo.pop()
            if base not in found:
                found.add(base)
                todo.extend(bases.get(base, ()))
        return found

    def is_builtin_exception(name: str) -> bool:
        value = getattr(builtins, name, None)
        return isinstance(value, type) and issubclass(value, BaseException)

    return [
        f"{module_of[name]}.{name}"
        for name in bases
        if name != "InputError"
        and any(is_builtin_exception(base) for base in ancestors(name))
        and "InputError" not in ancestors(name)
    ]


def test_every_exception_class_is_an_input_error():
    """``cli.main`` maps InputError and OSError to exit 2 and lets every
    other exception through; an error type of its own that input can raise
    must therefore derive from InputError."""
    from vcgen.errors import InputError

    assert issubclass(InputError, ValueError)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert exceptions_outside_input_error(sources) == []


def test_exception_outside_input_error_is_found():
    sources = {
        "a": (
            "class InputError(ValueError):\n    pass\n"
            "class Good(InputError):\n    pass\n"
        ),
        "b": (
            "from . import a\n"
            "class Deeper(a.Good):\n    pass\n"
            "class Bad(KeyError):\n    pass\n"
            "class Worse(Bad):\n    pass\n"
            "def f():\n"
            "    class Nested(Exception):\n        pass\n"
            "class Plain:\n    pass\n"
            "class Kind(str):\n    pass\n"
        ),
    }
    assert exceptions_outside_input_error(sources) == ["b.Bad", "b.Worse", "b.Nested"]


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of ``open(path, mode)`` or ``something.open(mode)``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    at = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[at] if len(call.args) > at else None


def _file_write(call: ast.Call) -> str | None:
    """What ``call`` does if it writes JSON text or opens a path to write:
    ``json.dump``/``json.dumps``, ``open``/``.open`` with a mode holding w,
    a, x or + (or a mode that is not a literal), ``.write_text`` or
    ``.write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("dump", "dumps") and (isinstance(func, ast.Name) or isinstance(func.value, ast.Name)
                                      and func.value.id == "json"):
        return f"json.{name}"
    if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
        return name
    if name == "open":
        mode = _open_mode(call)
        if mode is None or isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and not set(mode.value) & set("wax+"):
            return None
        return f"open({ast.unparse(mode)})"
    return None


def file_writes(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing function, what) of each call in ``source`` that
    ``_file_write`` names; ``<module>`` outside any function."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _file_write(child):
                found.append((scope, _file_write(child)))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(ast.parse(source), "<module>")
    return found


# The module that owns writing: strict JSON, UTF-8 with LF, replace on success.
WRITER_MODULE = "files.py"
# (module, function, what) that write outside it, with the reason.
WRITES_ALLOWED = {
    ("train.py", "_train", 'open(\'w\')'): "the train log streams in place, so a run that fails mid-way "
                                          "keeps the lines it logged",
}


def test_only_the_writer_module_writes_files():
    """Every other module writes through ``vcgen.files``, so each output is
    strict JSON, UTF-8 with LF, and replaced whole only on success."""
    found = {
        (p.name, scope, what)
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != WRITER_MODULE
        for scope, what in file_writes(p.read_text(encoding="utf-8"))
    }
    assert sorted(found - set(WRITES_ALLOWED)) == []
    assert sorted(set(WRITES_ALLOWED) - found) == [], "gone now: drop it from WRITES_ALLOWED"


def test_file_write_is_found_in_every_form():
    source = (
        "import json\n"
        "from json import dumps\n"
        "text = json.dumps({})\n"
        "def save(path, mode):\n"
        "    json.dump({}, fh)\n"
        "    dumps([])\n"
        "    open(path).read()\n"
        "    open(path, 'rb').read()\n"
        "    path.open(encoding='utf-8')\n"
        "    json.loads('1')\n"
        "    fh.write('x')\n"
        "    def inner():\n"
        "        path.open('a')\n"
        "        open(path, mode=\"r+\")\n"
        "    open(path, mode)\n"
        "    path.open('xb')\n"
        "class Saver:\n"
        "    def save(self, path):\n"
        "        path.write_text('x')\n"
        "        path.write_bytes(b'x')\n"
        "        open(path, 'w', encoding='utf-8')\n"
    )
    assert file_writes(source) == [
        ("<module>", "json.dumps"),
        ("save", "json.dump"),
        ("save", "json.dumps"),
        ("inner", "open('a')"),
        ("inner", "open('r+')"),
        ("save", "open(mode)"),
        ("save", "open('xb')"),
        ("save", "write_text"),
        ("save", "write_bytes"),
        ("save", "open('w')"),
    ]


def dropout_references(source: str) -> list[int]:
    """Lines that reach ``tensor.dropout``: an import of it from
    ``vcgen.tensor``, or ``.dropout`` read off a name bound to that module
    (``ops.dropout``, a field of an op table, is not one)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module in (".tensor", "vcgen.tensor") and alias.name == "dropout":
                    found.append(node.lineno)
                elif module in (".", "vcgen") and alias.name == "tensor":
                    modules.add(alias.asname or "tensor")
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "vcgen.tensor"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "dropout" and ast.unparse(node.value) in modules:
            found.append(node.lineno)
    return sorted(found)


# The module whose training objective draws dropout masks; every other
# forward runs the identity ``dropout`` of ``TAPE`` or ``ARRAYS``.
DROPOUT_MODULE = "losses.py"


def test_only_the_training_objective_draws_dropout():
    """Scoring, decoding and validation stay deterministic because only the
    training objective builds an op table whose ``dropout`` draws."""
    found = {
        p.name
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "tensor.py" and dropout_references(p.read_text(encoding="utf-8"))
    }
    assert found == {DROPOUT_MODULE}


def test_dropout_reference_is_found_in_every_form():
    source = (
        "from .tensor import TAPE, dropout\n"
        "from . import tensor\n"
        "import vcgen.tensor\n"
        "import vcgen.tensor as t\n"
        "def f(ops, x):\n"
        "    ops.dropout(x)\n"
        "    TAPE._replace(dropout=None)\n"
        "    tensor.dropout(x, 0.1, None)\n"
        "    from vcgen.tensor import dropout as drop\n"
        "    return vcgen.tensor.dropout, t.dropout, tensor.linear\n"
    )
    assert dropout_references(source) == [1, 8, 9, 10, 10]


# The parameter prefixes of the decoder layer body, each f-string's fields
# written as ``{}``, and the functions of ``model.py`` that lay out the
# parameter tables, where the names are built from parts instead.
DECODER_PREFIXES = ("dec.{}.ln1", "dec.{}.ln2", "dec.{}.ln3", "dec.{}.ffn", "dec.ln")
PARAMETER_TABLES = ("_param_tables", "param_shapes")


def decoder_prefix_sites(source: str) -> dict[str, list[int]]:
    """The lines of each string or f-string that spells a decoder prefix,
    outside the parameter-table functions."""
    tree = ast.parse(source)
    tables = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in PARAMETER_TABLES for sub in ast.walk(node)}
    sites: dict[str, list[int]] = {prefix: [] for prefix in DECODER_PREFIXES}
    for node in ast.walk(tree):
        if id(node) in tables:
            continue
        if isinstance(node, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text in sites:
            sites[text].append(node.lineno)
    return {prefix: sorted(lines) for prefix, lines in sites.items()}


def test_model_formats_each_decoder_prefix_once():
    """One decoder layer body: a second copy of it (a decoding path of its
    own) formats the layer's norm and FFN prefixes again."""
    sites = decoder_prefix_sites((PACKAGE / "model.py").read_text(encoding="utf-8"))
    assert all(len(lines) == 1 for lines in sites.values()), sites


def test_second_decoder_layer_body_is_found():
    source = (
        "def _param_tables(config):\n"
        "    return {f'dec.{i}.ln1': 1, 'dec.ln': 2}\n"
        "def decode(self, i):\n"
        "    return f'dec.{i}.ln1', f'dec.{i + 1}.ffn', 'dec.ln', f'{i}.ln2'\n"
        "def decode_step(self, j):\n"
        "    return f'dec.{j}.ln1', \"dec.ln\"\n"
    )
    assert decoder_prefix_sites(source) == {
        "dec.{}.ln1": [4, 6], "dec.{}.ln2": [], "dec.{}.ln3": [], "dec.{}.ffn": [4], "dec.ln": [4, 6],
    }
