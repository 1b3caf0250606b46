"""Contract tests for the public API surface.

Everything exported in ``repro.__all__`` must resolve, and every public item
of the package must carry a docstring (documentation-coverage check, part of
deliverable (e)).
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro


PUBLIC_MODULES = [
    name
    for __, name, __ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
]


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)


class TestDocumentation:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_public_callables_documented(self):
        undocumented: list[str] = []
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                obj = getattr(module, name)
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if obj.__module__ != module_name:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        """Every public method of the central classes has a docstring."""
        from repro import Instance, NestedTgd, Pattern, SchemaMapping, SOTgd, STTgd

        undocumented: list[str] = []
        for cls in (Instance, NestedTgd, STTgd, SOTgd, Pattern, SchemaMapping):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, f"undocumented methods: {undocumented}"

    def test_perf_counter_table_matches_the_code(self):
        """The counter table of the ``repro.perf`` docstring lists exactly the
        counters that ``perf.incr`` calls in the package record."""
        from repro import perf

        incremented: set[str] = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            if path.name == "perf.py":
                continue  # its docstring example records a listed counter
            text = path.read_text(encoding="utf-8")
            assert not re.findall(r'perf\.incr\((?!")', text), (
                f"{path.name}: perf.incr with a non-literal counter name")
            incremented.update(re.findall(r'perf\.incr\("([^"]+)"', text))
        rows = set(re.findall(r"^``([\w.]+)``", perf.__doc__, flags=re.MULTILINE))
        assert incremented - rows == set(), "counters missing from the table"
        assert rows - incremented == set(), "table rows no code increments"
        # one whole-verdict hit counter per persistent verdict space
        assert {
            "implies.verdict_disk_hits",
            "containment.verdict_disk_hits",
            "glav.verdict_disk_hits",
        } <= rows
