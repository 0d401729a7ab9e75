"""The package's modules import each other one way, at module top, by public names.

An import inside a function hides a cycle; a `from .x import _name` couples a
module to another's internals. Both are rejected here, and so is a cycle.

Colors reach numpy only as tuples: no module reads a color's channels by
name (`.r`, `.g`, `.b`) or converts it with `.as_array()`.

The feature builders `fourier_features_array` and `target_last_order` are
named only where model inputs are built (`colorspace`, `listener`,
`speaker`), so no other module grows a second builder beside theirs.

Every method that `perfbench/tracing.py` traces is defined in its class's
own body, where the tracer looks it up.
"""

import ast
import importlib
import inspect
from graphlib import TopologicalSorter
from pathlib import Path

import pragref

SOURCES = sorted(Path(pragref.__file__).parent.glob("*.py"))


def _violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [f"line {sub.lineno}: import inside {node.name}()"
                    for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "pragref")):
            out += [f"line {node.lineno}: private name {a.name} from {node.module}"
                    for a in node.names if a.name.startswith("_")]
    return sorted(out)


COLOR_ATTRIBUTES = {"r", "g", "b", "as_array"}


def _color_reads(source: str) -> list[str]:
    """Each read of a color attribute in a source, in source order."""
    reads = sorted((node.lineno, node.col_offset, node.attr)
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in COLOR_ATTRIBUTES)
    return [f"line {line}: .{attr}" for line, _, attr in reads]


def _package_imports(source: str) -> set[str]:
    """Modules of the package that a source imports with `from .x import ...`."""
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_sources_found():
    assert len(SOURCES) >= 9


def test_imports_at_top_and_public():
    found = {p.name: v for p in SOURCES if (v := _violations(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_no_import_cycle():
    graph = {p.stem: _package_imports(p.read_text(encoding="utf-8")) for p in SOURCES}
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_checker_catches_each_kind():
    source = ("from .a import b\n"
              "from .metrics import _scores\n"
              "def f():\n"
              "    from .rsa import g\n"
              "    import json\n")
    assert _violations(source) == ["line 2: private name _scores from metrics",
                                   "line 4: import inside f()", "line 5: import inside f()"]
    assert _package_imports(source) == {"a", "metrics", "rsa"}


def test_colors_read_as_tuples():
    found = {p.name: v for p in SOURCES if (v := _color_reads(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_color_checker_catches_each_attribute():
    source = ("rgb = [(c.r, c.g, c.b) for c in colors]\n"
              "row = color.as_array()\n"
              "rows = np.asarray(colors)\n")
    assert _color_reads(source) == ["line 1: .r", "line 1: .g", "line 1: .b",
                                    "line 2: .as_array"]


CELL_KERNELS = {"lstm_cell", "lstm_cell_backward", "lstm_bptt"}
TAPE_LSTM = {"lstm_step", "run_lstm"}


def _names(tree: ast.AST) -> set[str]:
    """Every name and attribute a syntax tree reads, and every name it
    imports or defines."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name, node.asname} - {None}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def _names_in_functions(source: str, functions: set[str]) -> dict[str, set[str]]:
    """Every name each top-level function of `functions` reads or defines."""
    return {node.name: _names(node) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in functions}


def test_tape_lstm_shares_no_cell_kernel():
    # the tape's LSTM is the reference for the cell kernels, so it must not run them
    source = (Path(pragref.__file__).parent / "nnsubstrate.py").read_text(encoding="utf-8")
    names = _names_in_functions(source, TAPE_LSTM)
    assert names.keys() == TAPE_LSTM
    assert {f: n & CELL_KERNELS for f, n in names.items()} == {f: set() for f in TAPE_LSTM}


def test_kernel_checker_catches_names_and_attributes():
    source = ("def lstm_step(x):\n    return lstm_cell(x)\n"
              "def run_lstm(x):\n    return nn.lstm_bptt(x)\n"
              "def other(x):\n    return lstm_cell_backward(x)\n")
    names = _names_in_functions(source, TAPE_LSTM)
    assert {f: n & CELL_KERNELS for f, n in names.items()} == {"lstm_step": {"lstm_cell"},
                                                              "run_lstm": {"lstm_bptt"}}


FEATURE_BUILDERS = {"fourier_features_array", "target_last_order"}
BUILDER_MODULES = {"colorspace", "listener", "speaker"}


def test_feature_builders_named_only_where_inputs_are_built():
    found = {p.stem: sorted(n) for p in SOURCES if p.stem not in BUILDER_MODULES
             and (n := _names(ast.parse(p.read_text(encoding="utf-8"))) & FEATURE_BUILDERS)}
    assert found == {}


def test_feature_builder_checker_catches_imports_calls_and_definitions():
    for source, want in [("from .colorspace import fourier_features_array as ffa\n",
                          {"fourier_features_array"}),
                         ("order = speaker.target_last_order(rgb, targets)\n",
                          {"target_last_order"}),
                         ("def fourier_features_array(rgb):\n    return rgb\n",
                          {"fourier_features_array"}),
                         ("feats = speaker.feature_rows(rgb, targets)\n", set())]:
        assert _names(ast.parse(source)) & FEATURE_BUILDERS == want


TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_methods() -> tuple:
    """The (module, class, method) triples of tracing.py's METHODS, read by AST."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py assigns no METHODS")


def _unowned(methods) -> list[str]:
    """Each traced method that is not a function in its class's own __dict__,
    as the tracer's `cls.__dict__[meth]` requires."""
    out = []
    for module, cls_name, meth in methods:
        cls = getattr(importlib.import_module(f"pragref.{module}"), cls_name)
        if not inspect.isfunction(cls.__dict__.get(meth)):
            out.append(f"{module}.{cls_name}.{meth}")
    return out


def test_traced_methods_are_defined_in_their_class():
    methods = _traced_methods()
    assert len(methods) >= 3
    assert _unowned(methods) == []


def test_traced_method_checker_catches_inherited_methods():
    assert _unowned([("nnsubstrate", "Adam", "step"), ("nnsubstrate", "Adam", "_blocks"),
                     ("nnsubstrate", "Parameter", "backward")]) == [
        "nnsubstrate.Adam._blocks", "nnsubstrate.Parameter.backward"]
