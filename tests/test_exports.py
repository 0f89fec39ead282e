"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib

import ksparse


def test_package_exports_resolve():
    missing = []
    for name in ksparse.__all__:
        try:
            getattr(ksparse, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_submodule_all_resolves():
    missing = []
    for submodule in sorted(set(ksparse._EXPORTS.values())):
        module = importlib.import_module(f"ksparse.{submodule}")
        missing += [f"{submodule}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
