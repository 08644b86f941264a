"""The README's Library-tour example runs against the current API, and the
names its Tolerances table gives are gptkit's."""

import importlib
import pkgutil
import re
from pathlib import Path

import gptkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md (Library tour)", "exec"), {})


def _resolves(name):
    """True if the dotted ``name`` is an attribute of ``gptkit`` or of one of
    its modules, followed through modules and classes."""
    roots = [gptkit, *(importlib.import_module(f"gptkit.{m.name}") for m in pkgutil.iter_modules(gptkit.__path__))]
    for obj in roots:
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_tolerance_table_names_checks_that_exist():
    """Each backticked name in the Tolerances table's "Checks that read it"
    column is a gptkit function, class or method; ``D`` and phrases in
    backticks are not names."""
    text = README.read_text()
    table = text[text.index("### Tolerances and sample budgets"):text.index("## Command line")]
    names = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            column = re.split(r"(?<!\\)\|", row)[3]
            names.update(t for t in re.findall(r"`([^`]+)`", column)
                         if t != "D" and re.fullmatch(r"[A-Za-z_][\w.]*", t))
    assert len(names) >= 20
    assert [name for name in sorted(names) if not _resolves(name)] == []
