"""The package's public names: sorted, resolvable, and never a submodule's name."""

import importlib
import pkgutil
import types

import twistorz


def test_all_is_sorted_and_resolves():
    assert twistorz.__all__ == sorted(twistorz.__all__)
    assert len(set(twistorz.__all__)) == len(twistorz.__all__)
    for name in twistorz.__all__:
        assert hasattr(twistorz, name), name


def test_no_export_shadows_a_submodule():
    submodules = {info.name for info in pkgutil.iter_modules(twistorz.__path__)}
    assert {"cli", "nijenhuis", "verify"} <= submodules
    assert submodules.isdisjoint(twistorz.__all__)
    for name in submodules & set(vars(twistorz)):
        assert isinstance(getattr(twistorz, name), types.ModuleType), name


def test_import_as_binds_the_submodule():
    import twistorz.nijenhuis as N

    assert isinstance(N, types.ModuleType)
    assert N is importlib.import_module("twistorz.nijenhuis")
    assert callable(N._cofactor_matrix)
