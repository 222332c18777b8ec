"""The package's public names: sorted, resolvable, never a submodule's name, and
imported lazily, so that importing the package sets up nothing; and the one
exactness tolerance that no public function lets a caller override."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def test_every_export_has_a_submodule():
    assert sorted(twistorz._EXPORTS) == twistorz.__all__
    assert set(twistorz.__all__) <= set(dir(twistorz))


def test_no_public_callable_takes_a_tolerance():
    callables = [getattr(twistorz, name) for name in twistorz.__all__]
    callables = [obj for obj in callables if callable(obj)] + [twistorz.ACS.validate]
    for obj in callables:
        assert "tol" not in inspect.signature(obj).parameters, obj


def test_one_exactness_tolerance():
    from twistorz.acs import DEFAULT_TOL

    for module in ("nijenhuis", "nearly_kaehler", "zgeom", "cli"):
        found = getattr(importlib.import_module(f"twistorz.{module}"), "DEFAULT_TOL", DEFAULT_TOL)
        assert found is DEFAULT_TOL, module


def _child(code, **env_vars):
    """Run ``code`` in a fresh interpreter that imports this package, without OPENBLAS_NUM_THREADS
    unless given; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(twistorz.__file__).resolve().parents[1])
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_numpy_and_leaves_blas_alone():
    code = "import os, sys, twistorz; print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _child(code) == "False None"


def test_cli_import_asks_for_one_blas_thread():
    code = "import os, twistorz.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(code) == "1"


def test_cli_import_keeps_a_user_setting():
    code = "import os, twistorz.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_in_process_main_keeps_the_collector():
    # only the program's entry freezes the heap; a freeze in ``main`` would
    # leave every later cycle of an in-process caller uncollectable
    code = ("import contextlib, gc, io\nfrom twistorz import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): cli.main(['classify', '--cp3', '1,0,0,0'])\n"
            "print(gc.isenabled(), gc.get_freeze_count())")
    assert _child(code) == "True 0"


def _main_block_entry(module):
    """The function that ``module``'s ``if __name__ == "__main__"`` block passes to ``sys.exit``."""
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            (stmt,) = node.body
            return getattr(module, stmt.value.args[0].func.id)
    raise AssertionError(f"{module.__name__} has no __main__ block")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the stdlib from 3.11")
def test_console_script_is_the_main_block_entry():
    import tomllib

    from twistorz import cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["twistorz"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is _main_block_entry(cli)


#: modules that some subcommand leaves unloaded
_DEFERRED = ("numpy", "numpy.random", "twistorz.cp3", "twistorz.nearly_kaehler", "twistorz.search",
             "twistorz.verify", "twistorz.zgeom")


def _main_in_child(*argv):
    """(exit code, stdout, stderr, which of ``_DEFERRED`` are loaded) of a fresh interpreter after
    ``import twistorz.cli`` and, given ``argv``, after ``cli.main(argv)``."""
    script = ("import contextlib, io, json, sys\nfrom twistorz import cli\n"
              "out, err = io.StringIO(), io.StringIO()\n"
              "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              f"    code = cli.main({list(argv)!r}) if {list(argv)!r} else None\n"
              f"print(json.dumps([code, out.getvalue(), err.getvalue(), [m for m in {_DEFERRED!r} if m in sys.modules]]))")
    code, out, err, loaded = json.loads(_child(script))
    return code, out, err, set(loaded)


def _deferred_loaded(*argv):
    """Which of ``_DEFERRED`` are loaded after ``import twistorz.cli`` and ``cli.main(argv)``."""
    return _main_in_child(*argv)[3]


def test_each_subcommand_loads_only_its_own_modules(tmp_path):
    assert _deferred_loaded() == set()
    # no subcommand loads numpy.random: every sample reads kernels._Normals
    assert _deferred_loaded("optimize", "--restarts", "1") == {"numpy", "twistorz.search"}
    geometry = {"numpy", "twistorz.cp3", "twistorz.nearly_kaehler"}
    assert _deferred_loaded("classify", "--cp3", "1,0,0,0") == geometry
    assert _deferred_loaded("sample", "--set", "ank", "--count", "1") == geometry | {"twistorz.zgeom"}
    assert _deferred_loaded("sample", "--set", "random", "--count", "1") == geometry
    assert _deferred_loaded("verify") == set(_DEFERRED) - {"numpy.random"}
    # a structure rejected as not in Z is never mapped to CP^3 or tested for ANK
    off_z = tmp_path / "off_z.json"
    off_z.write_text(json.dumps({"matrix": [0.5] * 36}), encoding="utf-8")
    assert _deferred_loaded("classify", "--in", str(off_z)) == {"numpy"}


@pytest.mark.parametrize("argv, document", [
    (["--cp3", "nan,1,1,1"], None), (["--cp3", "0,0,0,0"], None), (["--cp3", "1,2,3"], None),
    (["--cp3", "1,inf,0,0"], None), (["--cp3=1,-inf+2i,0,0"], None),
    (["--in"], "[0" + ", 0" * 35 + "]"),
    (["--in"], '{"matrix": [NaN' + ", 0" * 35 + "]}"),
    (["--in"], '{"matrix": [1' + "0" * 400 + ", 0" * 35 + "]}"),
    # past the digit limit of int(), which the parser never calls
    (["--in"], '{"matrix": [1' + "0" * 5000 + ", 0" * 35 + "]}"),
    (["--in"], b'{"matrix": [\xff' + b", 0" * 35 + b"]}"),
    (["--in"], '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    (["--in"], None),
], ids=["cp3-nan", "cp3-zero", "cp3-three", "cp3-inf", "cp3-minus-inf", "bare-list", "nan", "huge-int",
        "int-past-digit-limit", "not-utf8", "nested", "missing-file"])
def test_classify_input_errors_exit_before_numpy_loads(tmp_path, argv, document):
    if argv == ["--in"]:
        path = tmp_path / "structure.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        elif document is not None:
            path.write_text(document, encoding="utf-8")
        argv = ["--in", str(path)]
    code, out, err, loaded = _main_in_child("classify", *argv)
    assert (code, out, loaded) == (2, "", set())
    assert len(err.splitlines()) == 1 and err.startswith("error:")


#: exported functions that no subcommand runs, each with the reason it ships
_OFF_PATH = {
    "random_acs": "library API: perfbench's traced pass draws its structures with it",
    "is_integrable": "library API: perfbench's traced pass times it",
    "nijenhuis_tensor": "the paper's tensor on an ACS; the subcommands need only its norm",
}


def test_every_exported_function_runs_on_a_subcommand(tmp_path):
    doc = tmp_path / "hopf.json"
    doc.write_text('{"matrix": [0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, '
                   '1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0]}', encoding="utf-8")
    runs = [["verify"], ["optimize", "--restarts", "2"], ["optimize", "--direction", "min", "--restarts", "2"],
            *(["sample", "--set", name, "--count", "3"]
              for name in ("ank", "integrable", "random", "polar", "edge01")),
            ["classify", "--cp3", "1,0,0,-1"], ["classify", "--in", str(doc)]]
    code = ("import contextlib, inspect, io, sys, twistorz\nfrom twistorz import cli\n"
            "called = set()\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'call': called.add(frame.f_code)\n"
            "sys.setprofile(profile)\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()): assert cli.main(argv) in (0, 3), argv\n"
            "sys.setprofile(None)\n"
            "fns = [(name, inspect.unwrap(getattr(twistorz, name))) for name in twistorz.__all__]\n"
            "print(*[name for name, fn in fns if inspect.isfunction(fn) and fn.__code__ not in called])")
    assert set(_child(code).split()) == set(_OFF_PATH)


#: definitions in ``src/`` that no ``src/`` code calls, each with the reason it ships
_UNCALLED = {
    **_OFF_PATH,
    "__getattr__": "the package's lazy export hook (PEP 562), called by attribute access",
    "__dir__": "the package's export listing (PEP 562), called by dir()",
    "__post_init__": "the dataclasses' validation hook, called by their generated __init__",
    "haar_rotation": "library API: perfbench times it, and it defines what _haar_rotations draws",
}


def _uncalled_definitions() -> set:
    """Names of the module-level functions and classes and the methods in ``src/`` that no
    ``src/`` code refers to, as a loaded name or an attribute not rooted at an imported module."""
    defined, used = set(), set()
    for path in Path(twistorz.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        # numpy.linalg.norm is no caller of TwoForm.norm
        modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in modules):
                    used.add(node.attr)
    return defined - used


def test_every_definition_has_a_caller_in_src():
    assert _uncalled_definitions() == set(_UNCALLED)
