"""2-forms: coefficients, matrix, inner product."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistorz.exterior import PAIRS, TwoForm

#: a stack of two 6x6 matrices whose second member is not antisymmetric
_SECOND_SYMMETRIC = np.stack([np.zeros((6, 6)), np.eye(6)])
#: finite coefficients above the diagonal, an infinite entry below it
_INF_BELOW = np.zeros((6, 6))
_INF_BELOW[1, 0] = np.inf


def _omega0():
    return TwoForm.from_pairs({(0, 1): 1.0, (2, 3): 1.0, (4, 5): 1.0})


vector_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6
).map(np.array)
form_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=15, max_size=15
).map(lambda c: TwoForm(np.array(c)))


@given(vector_st, vector_st, vector_st, vector_st)
def test_eval_decomposable_form(a, b, x, y):
    # the form with matrix a b^T - b a^T is a ^ b: it evaluates to the determinant
    lhs = float(x @ TwoForm.from_matrix(np.outer(a, b) - np.outer(b, a)).matrix() @ y)
    rhs = float(a @ x) * float(b @ y) - float(a @ y) * float(b @ x)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_inner_product_examples():
    w0 = _omega0()
    assert w0.inner(w0) == 3.0
    assert w0.inner(TwoForm.basis(4, 5)) == 1.0
    assert TwoForm.basis(0, 1).inner(TwoForm.basis(2, 3)) == 0.0


@given(form_st)
def test_inner_positive_definite(w):
    q = w.inner(w)
    assert q >= 0.0
    if q == 0.0:
        assert w.norm() == 0.0


def test_norm_overflows_to_inf_and_underflows_to_zero_without_warnings():
    # squares that overflow give inf, and squares that underflow 0, as inner does (a
    # RuntimeWarning fails the run)
    assert TwoForm(np.full(15, 1e308)).norm() == np.inf
    tiny = TwoForm(np.full(15, 1e-200))
    assert tiny.norm() == tiny.inner(tiny) == 0.0
    assert TwoForm(np.arange(15.0)).norm() == np.sqrt(1015.0)


def test_eval_form_examples():
    m = _omega0().matrix()
    assert m[0, 1] == 1.0
    assert m[1, 0] == -1.0
    assert TwoForm.basis(4, 5).matrix()[0, 1] == 0.0


@given(form_st, vector_st, vector_st)
def test_eval_antisymmetric(w, x, y):
    m = w.matrix()
    assert abs(x @ m @ y + y @ m @ x) < 1e-10 * max(1.0, abs(x @ m @ y))


def test_matrix_round_trip(rng):
    c = rng.standard_normal(15)
    w = TwoForm(c)
    back = TwoForm.from_matrix(w.matrix())
    assert np.array_equal(back.coeffs, w.coeffs)


def test_basis_signs():
    # e^i ^ e^j is antisymmetric in its indices, and its matrix in its entries
    m = TwoForm.basis(1, 0).matrix()
    assert m[0, 1] == -1.0
    assert m[1, 0] == 1.0
    assert m[2, 2] == 0.0


def test_index_arrays_match_loops(rng):
    """Reference: the per-pair loops the index-array expressions replaced."""
    for _ in range(50):
        a = TwoForm(rng.standard_normal(15))
        m = np.zeros((6, 6))
        for k, (i, j) in enumerate(PAIRS):
            m[i, j], m[j, i] = a.coeffs[k], -a.coeffs[k]
        assert np.array_equal(a.matrix(), m)
        assert np.array_equal(TwoForm.from_matrix(m).coeffs, a.coeffs)
        u, v = rng.standard_normal((2, 6))
        loop = sum(a.coeffs[k] * (u[i] * v[j] - u[j] * v[i]) for k, (i, j) in enumerate(PAIRS))
        assert abs(u @ a.matrix() @ v - loop) <= 1e-14 * max(1.0, abs(loop))


@pytest.mark.parametrize("call, message", [
    (lambda: TwoForm(np.zeros(14)), "TwoForm needs 15 finite coefficients"),
    (lambda: TwoForm(np.full(15, np.nan)), "TwoForm needs 15 finite coefficients"),
    (lambda: TwoForm.basis(2, 2), "basis 2-form needs distinct indices"),
    (lambda: TwoForm.from_matrix(np.zeros((5, 5))), "expected a 6x6 matrix"),
    (lambda: TwoForm.from_matrix(np.eye(6)), "matrix is not antisymmetric"),
    (lambda: TwoForm.from_matrix(_SECOND_SYMMETRIC), "matrix is not antisymmetric at member 1"),
    (lambda: TwoForm(np.array([np.zeros(15), np.full(15, np.inf), np.zeros(15)])),
     "TwoForm needs 15 finite coefficients at member 1"),
    (lambda: TwoForm.from_matrix(np.full((6, 6), np.nan)), "TwoForm needs 15 finite coefficients"),
    (lambda: TwoForm.from_matrix(_INF_BELOW), "matrix is not antisymmetric"),
], ids=["14-coefficients", "nan", "basis-2-2", "5x5", "symmetric", "stack", "stack-inf", "nan-matrix", "inf-below"])
def test_malformed_input_raises_its_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
