"""Exterior kernel: wedge, inner product, evaluation."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from twistorz.algebra import basis_vector
from twistorz.exterior import (
    PAIRS,
    QUADS,
    TwoForm,
    decomposability_residual,
    wedge,
    wedge_two_forms,
)


def _omega0():
    return TwoForm.from_pairs({(0, 1): 1.0, (2, 3): 1.0, (4, 5): 1.0})


covector_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6
).map(np.array)
vector_st = covector_st


def test_wedge_basis_case():
    w = wedge(basis_vector(0), basis_vector(1))
    assert w.coeff(0, 1) == 1.0
    assert np.count_nonzero(w.coeffs) == 1


def test_wedge_alternating():
    w = wedge(basis_vector(0), basis_vector(0))
    assert w.norm() == 0.0


def test_wedge_bilinearity_example():
    w = wedge(basis_vector(0) + basis_vector(1), basis_vector(2))
    assert w.coeff(0, 2) == 1.0
    assert w.coeff(1, 2) == 1.0
    assert np.count_nonzero(w.coeffs) == 2


@given(covector_st, covector_st, st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_wedge_alternating_and_bilinear(a, b, t):
    alt = wedge(a + t * b, a + t * b)
    assert alt.norm() < 1e-12 * max(1.0, float(np.sum((a + t * b) ** 2)))
    left = wedge(a + t * b, b)
    split = wedge(a, b) + t * wedge(b, b)
    assert np.max(np.abs(left.coeffs - split.coeffs)) < 1e-10


@given(covector_st, covector_st, vector_st, vector_st)
def test_wedge_evaluation_identity(a, b, x, y):
    lhs = wedge(a, b).evaluate(x, y)
    rhs = float(a @ x) * float(b @ y) - float(a @ y) * float(b @ x)
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) < 1e-10 * scale


def test_inner_product_examples():
    w0 = _omega0()
    assert w0.inner(w0) == 3.0
    assert w0.inner(TwoForm.basis(4, 5)) == 1.0
    assert TwoForm.basis(0, 1).inner(TwoForm.basis(2, 3)) == 0.0


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=15, max_size=15))
def test_inner_positive_definite(coeffs):
    w = TwoForm(np.array(coeffs))
    q = w.inner(w)
    assert q >= 0.0
    if q == 0.0:
        assert w.norm() == 0.0


def test_eval_form_examples():
    w0 = _omega0()
    e = np.eye(6)
    assert w0.evaluate(e[0], e[1]) == 1.0
    assert w0.evaluate(e[1], e[0]) == -1.0
    assert TwoForm.basis(4, 5).evaluate(e[0], e[1]) == 0.0


@given(covector_st, covector_st, vector_st, vector_st)
def test_eval_antisymmetric(a, b, x, y):
    w = wedge(a, b)
    assert abs(w.evaluate(x, y) + w.evaluate(y, x)) < 1e-10 * max(1.0, abs(w.evaluate(x, y)))


def test_matrix_round_trip(rng):
    c = rng.standard_normal(15)
    w = TwoForm(c)
    back = TwoForm.from_matrix(w.matrix())
    assert np.array_equal(back.coeffs, w.coeffs)


def test_coeff_signs():
    w = TwoForm.basis(0, 1)
    assert w.coeff(0, 1) == 1.0
    assert w.coeff(1, 0) == -1.0
    assert w.coeff(2, 2) == 0.0


def test_decomposability_residual(rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    assert decomposability_residual(wedge(a, b)) < 1e-12
    assert decomposability_residual(_omega0()) > 0.5


def test_index_arrays_match_loops(rng):
    """Reference: the per-pair loops the index-array expressions replaced."""
    for _ in range(50):
        a, b = TwoForm(rng.standard_normal(15)), TwoForm(rng.standard_normal(15))
        m = np.zeros((6, 6))
        for k, (i, j) in enumerate(PAIRS):
            m[i, j], m[j, i] = a.coeffs[k], -a.coeffs[k]
        assert np.array_equal(a.matrix(), m)
        assert np.array_equal(TwoForm.from_matrix(m).coeffs, a.coeffs)
        u, v = rng.standard_normal((2, 6))
        assert np.array_equal(wedge(u, v).coeffs, [u[i] * v[j] - u[j] * v[i] for i, j in PAIRS])
        loop = sum(a.coeffs[k] * (u[i] * v[j] - u[j] * v[i]) for k, (i, j) in enumerate(PAIRS))
        assert abs(a.evaluate(u, v) - loop) <= 1e-14 * max(1.0, abs(loop))
        c, d = a.coeff, b.coeff
        expected = [
            c(i, j) * d(k, l) - c(i, k) * d(j, l) + c(i, l) * d(j, k)
            + c(k, l) * d(i, j) - c(j, l) * d(i, k) + c(j, k) * d(i, l)
            for i, j, k, l in QUADS
        ]
        assert np.array_equal(wedge_two_forms(a, b), expected)
