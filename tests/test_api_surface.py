"""Public names: the package exports, every name the demos import, and
every program call the benchmark harness makes exist; and every function
of the package reads each of its parameters."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import supercell

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def demo_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from supercell... import name`` in a demo."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "supercell"
        for alias in node.names
    ]


def test_all_names_resolve():
    missing = [name for name in supercell.__all__ if not hasattr(supercell, name)]
    assert missing == []


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = demo_imports(demo)
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for anything but names and attributes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def bench_calls(path: Path) -> list[tuple[str, object, int, list[str]]]:
    """(call text, resolved object, positional count, keyword names) for each
    ``<supercell module>.<name>[.<attr>](...)`` call in a benchmark file.
    Calls that unpack ``*args`` or ``**kwargs`` are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {
        alias.asname or alias.name: f"supercell.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "supercell"
        for alias in node.names
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted or len(dotted) < 2 or dotted[0] not in modules:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        obj = importlib.import_module(modules[dotted[0]])
        for attr in dotted[1:]:
            obj = getattr(obj, attr, None)
        text = f"{path.name}:{node.lineno} {'.'.join(dotted)}"
        calls.append((text, obj, len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_benchmark_calls_bind():
    # The benchmark harness is frozen with its workloads; a program change
    # that renames or drops something it calls must fail here first.
    calls = [call for path in BENCH for call in bench_calls(path)]
    assert len(calls) >= 50
    broken = []
    for text, obj, n_args, keywords in calls:
        if obj is None:
            broken.append(f"{text}: does not resolve")
            continue
        try:
            inspect.signature(obj).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            broken.append(f"{text}: {exc}")
    assert broken == []


def test_benchmark_trace_targets_resolve():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    )
    assert targets
    missing = []
    for name, (module_name, path) in targets.items():
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []




def names_read(node: ast.AST) -> set[str]:
    """Every name ``node`` loads; an augmented assignment (``grads += ...``)
    also reads its target."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
            read.add(sub.target.id)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
    return read


def unread_parameters(path: Path) -> list[str]:
    """``file:line function(parameter)`` for each parameter of a function in
    ``path`` that its body never reads; ``self`` and ``cls`` are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = set().union(*map(names_read, node.body))
        unread += [
            f"{path.name}:{node.lineno} {node.name}({param.arg})"
            for param in params
            if param is not None and param.arg not in ("self", "cls") and param.arg not in read
        ]
    return unread


def test_every_parameter_is_read():
    # A parameter no body reads is an input callers must supply for nothing.
    sources = sorted((ROOT / "src" / "supercell").glob("*.py"))
    assert len(sources) >= 10
    assert [entry for path in sources for entry in unread_parameters(path)] == []
