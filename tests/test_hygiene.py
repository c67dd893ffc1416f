"""Source hygiene of the package: every imported name is read somewhere,
nothing is imported from outside the standard library, numpy and vcgen, the
inference modules import nothing of the tape, every function, class and
method is read by package code, and every exception class is an InputError."""

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
