"""The exit-code contract of `classify` as a property, in process.

For every `--cp3` string and every `--in` document: the exit code is 0, 1
or 2; stderr holds no traceback and no warning (a RuntimeWarning raises);
exit 1 comes with `in_z: false` and a finite residual; exit 2 comes with
exactly one `error:` line.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorz.acs import ank_reference_acs, hopf_acs, random_acs, vertex_acs
from twistorz.cli import main

#: the pieces of the `--cp3` strings: overflow, subnormal, tiny, non-finite, imaginary, empty
ATOMS = ("0", "1", "-1", "+1", "1e308", "-1e308", "1e-320", "1e-9", "nan", "inf", "-inf", "2i", "")

#: the one rejection that reports no residual: an orientation is a sign, not a size
ORIENTATION_REASON = "J induces the opposite orientation from the reference structure"

#: matrix entries at the float extremes
FINITE_EXTREMES = (0.0, 1.0, -1.0, 0.5, 1e-9, 1e-320, 1e308, -1e308)

MEMBERS = [m.matrix for m in (*map(vertex_acs, range(4)), hopf_acs(), ank_reference_acs(), random_acs(7))]


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, a RuntimeWarning raising."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's own rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    as_json = "--json" in argv
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 2:
        assert out == "", argv
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        return code
    assert err == "", (argv, err)
    if as_json:
        report = json.loads(out)
        in_z, reason = report["in_z"], report.get("reason")
    else:
        lines = out.splitlines()
        in_z = lines[0] == "in_z: true"
        reason = lines[1].removeprefix("reason: ") if lines[0] == "in_z: false" else None
    assert in_z is (code == 0), (argv, out)
    if code == 1 and reason != ORIENTATION_REASON:
        residual = float(reason.rsplit("max residual ", 1)[1].rstrip(")"))
        assert math.isfinite(residual), (argv, reason)
    return code


_part = st.one_of(
    st.sampled_from(ATOMS),
    st.builds("{}+{}i".format, st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
)


@settings(max_examples=300)
@given(parts=st.lists(_part, min_size=4, max_size=4) | st.lists(_part, max_size=6), as_json=st.booleans())
def test_classify_cp3_keeps_the_exit_code_contract(parts, as_json):
    _assert_contract(["classify", "--cp3", ",".join(parts)] + ["--json"] * as_json)


_finite = st.sampled_from(FINITE_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
_scalar = st.one_of(
    _finite,
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.integers(min_value=-(10**400), max_value=10**400),
)
_json = st.recursive(
    st.none() | st.booleans() | _scalar | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _member_entries(draw):
    """A member of Z, perhaps negated (the opposite orientation), with up to three entries replaced."""
    m = MEMBERS[draw(st.integers(0, len(MEMBERS) - 1))] * draw(st.sampled_from((1.0, -1.0)))
    entries = [float(v) for v in m.flatten()]
    for k in draw(st.lists(st.integers(0, 35), max_size=3)):
        entries[k] = draw(_scalar)
    return entries


_matrix = st.one_of(
    _member_entries(),
    st.lists(_finite, min_size=36, max_size=36),
    st.lists(_scalar, min_size=36, max_size=36),
    st.lists(_json, max_size=40),
    _json,
)
_document = st.builds(lambda m: {"matrix": m}, _matrix) | _matrix | _json


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "structure.json"


@settings(max_examples=300)
@given(doc=_document, as_json=st.booleans())
def test_classify_in_keeps_the_exit_code_contract(doc_path, doc, as_json):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_contract(["classify", "--in", str(doc_path)] + ["--json"] * as_json)


def test_the_properties_reach_every_exit_code(tmp_path):
    # each code of the contract is reached by an input of the strategies above
    codes = {_assert_contract(["classify", "--cp3", p]) for p in ("1,0,0,0", "0,0,0,0")}
    for entries in (-MEMBERS[0], np.full((6, 6), 1e308)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"matrix": entries.flatten().tolist()}), encoding="utf-8")
        codes.add(_assert_contract(["classify", "--in", str(path), "--json"]))
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("as_json", [False, True])
def test_a_residual_at_the_float_maximum_reads_back_finite(tmp_path, as_json):
    # .3e rounds the largest float up to 1.798e+308, which float() reads as inf
    entries = np.zeros(36)
    entries[0] = np.finfo(float).max
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"matrix": entries.tolist()}), encoding="utf-8")
    assert _assert_contract(["classify", "--in", str(path)] + ["--json"] * as_json) == 1
