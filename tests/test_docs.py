"""Promises the README makes about the code."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "polyhom"
# `module.NAME` = value, the value written as 4096, 2,000,000 or 2^20
NAMED_VALUE = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)` = ([\d,]+(?:\^\d+)?)")
CAP_MODULES = ("search", "structures", "homogeneity", "galois", "classify")


def _budgets_section():
    text = README.read_text()
    start = text.index("### Budgets")
    return text[start:text.index("\n#", start)]


def _value(written):
    base, _, exponent = written.replace(",", "").partition("^")
    return int(base) ** int(exponent or 1)


def test_readme_budget_caps_match_the_code():
    named = NAMED_VALUE.findall(_budgets_section())
    assert len(named) >= 10
    for module, name, written in named:
        got = getattr(importlib.import_module("polyhom." + module), name)
        assert got == _value(written), (module, name, got, written)
    # and every size cap the engine defines is listed there
    listed = {(module, name) for module, name, _ in named}
    for module in CAP_MODULES:
        source = Path(importlib.import_module("polyhom." + module).__file__)
        for name in re.findall(r"^([A-Z][A-Z0-9_]*) = ", source.read_text(),
                               re.M):
            if name.startswith("MAX_") or name.endswith("_CAP"):
                assert (module, name) in listed, (module, name)


def _allowance_callers():
    """Every function of the package that calls search._allowance."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "_allowance"
                    for call in ast.walk(node)):
                callers.add(node.name)
    return callers


def test_readme_budgets_name_every_call_that_owns_an_allowance():
    section = " ".join(_budgets_section().split())
    top = re.search(r"The calls are (.*?)\.", section).group(1)
    bare = re.search(r"A bare (.*?) keeps its own allowance",
                     section).group(1)
    listed = set(re.findall(r"`(\w+)`", top + bare))
    callers = _allowance_callers()
    assert len(callers) >= 10
    assert callers <= listed, sorted(callers - listed)
