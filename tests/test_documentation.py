"""Documentation quality gates.

Walks the installed package and asserts every public module, class,
function and method carries a docstring — keeping deliverable (e) honest
as the codebase grows — and that the python examples in the docs import
only names that exist and pass only keywords their callees take.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)

IGNORED_METHOD_NAMES = {
    # dataclass/namedtuple machinery and dunders other than __init__
    "__repr__",
    "__eq__",
    "__hash__",
    "__str__",
}


def iter_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        yield importlib.import_module(info.name)


def owned_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


ALL_MODULES = list(iter_public_modules())


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} lacks a docstring"
    )


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
)
def test_public_items_have_docstrings(module):
    missing = []
    for name, member in owned_members(module):
        if not (member.__doc__ and member.__doc__.strip()):
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(member):
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_") or attr_name in IGNORED_METHOD_NAMES:
                    continue
                if not (
                    inspect.isfunction(attr)
                    or isinstance(attr, (property, classmethod, staticmethod))
                ):
                    continue
                target = attr
                if isinstance(attr, (classmethod, staticmethod)):
                    target = attr.__func__
                elif isinstance(attr, property):
                    target = attr.fget
                if target is None:
                    continue
                doc = inspect.getdoc(target)
                if not (doc and doc.strip()):
                    missing.append(
                        f"{module.__name__}.{name}.{attr_name}"
                    )
    assert not missing, "missing docstrings:\n  " + "\n  ".join(missing)


def test_every_module_under_src_is_importable():
    """No orphan modules with syntax errors hiding in the tree."""
    count = sum(1 for _ in iter_public_modules())
    assert count >= 30  # the package is genuinely large


def documented_imports():
    """``(doc, module, name)`` for every ``from repro… import name`` in
    the python code blocks of docs/api.md and README.md."""
    for doc in (ROOT / "docs" / "api.md", ROOT / "README.md"):
        for block in PYTHON_BLOCK.findall(doc.read_text()):
            for node in ast.walk(ast.parse(block)):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if (node.module or "").split(".")[0] != "repro":
                    continue
                for alias in node.names:
                    yield doc.name, node.module, alias.name


def test_documented_imports_resolve():
    """A doc example may not import a name the package no longer has."""
    imports = list(documented_imports())
    assert imports
    missing = [
        f"{doc}: from {module} import {name}"
        for doc, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, "docs import missing names:\n  " + "\n  ".join(
        missing
    )


def _resolve(node, names):
    """The object a ``Name``/``Attribute`` callee refers to, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return getattr(owner, node.attr, None)
    return None


def _imported_names(tree):
    """``{local name: object}`` for the block's ``from repro… import``s;
    a submodule (``from repro.circuits import twoport``) is imported."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.module or "").split(".")[0] != "repro":
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            value = getattr(module, alias.name, None)
            if value is None:
                value = importlib.import_module(f"{node.module}.{alias.name}")
            names[alias.asname or alias.name] = value
    return names


def documented_keywords():
    """``(doc, callee, keyword, parameters)`` for every keyword argument
    in the python blocks of docs/api.md and README.md whose callee the
    block imported from ``repro`` and which takes no ``**kwargs``."""
    for doc in (ROOT / "docs" / "api.md", ROOT / "README.md"):
        for block in PYTHON_BLOCK.findall(doc.read_text()):
            tree = ast.parse(block)
            names = _imported_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = _resolve(node.func, names)
                if not callable(callee):
                    continue
                parameters = inspect.signature(callee).parameters
                if any(
                    p.kind is inspect.Parameter.VAR_KEYWORD
                    for p in parameters.values()
                ):
                    continue
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        yield (
                            doc.name, ast.unparse(node.func), keyword.arg,
                            parameters,
                        )


def test_documented_keywords_exist():
    """A doc example may not pass a keyword its callee does not take."""
    keywords = list(documented_keywords())
    assert keywords
    missing = [
        f"{doc}: {callee}({keyword}=...)"
        for doc, callee, keyword, parameters in keywords
        if keyword not in parameters
    ]
    assert not missing, "docs pass unknown keywords:\n  " + "\n  ".join(
        missing
    )
