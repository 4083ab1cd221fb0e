"""Promises the README makes about the code."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
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
