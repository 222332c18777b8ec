"""Bracket, metric and connection of su(2) + su(2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BRACKET_TABLE, oracle_bracket
from twistorz.algebra import (
    STRUCTURE_CONSTANTS,
    basis_vector,
    bracket,
    nabla,
)

vec_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6
).map(np.array)


def test_bracket_table_entries():
    e = np.eye(6)
    assert np.array_equal(bracket(e[0], e[1]), e[2])  # [e1, e2] = e3
    assert np.array_equal(bracket(e[3], e[5]), -e[4])  # [e4, e6] = -e5
    assert np.array_equal(bracket(e[1], e[4]), np.zeros(6))  # factors commute


def test_structure_constants_match_table():
    expected = np.zeros((6, 6, 6))
    for i, j, k, v in BRACKET_TABLE:
        expected[k, i, j] = v
        expected[k, j, i] = -v
    assert np.array_equal(STRUCTURE_CONSTANTS, expected)


def test_structure_constants_are_read_only():
    assert not STRUCTURE_CONSTANTS.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        STRUCTURE_CONSTANTS[2, 0, 1] = -1.0


@given(vec_st, vec_st)
def test_bracket_matches_oracle(x, y):
    assert np.max(np.abs(bracket(x, y) - oracle_bracket(x, y))) < 1e-12 * max(
        1.0, float(np.max(np.abs(x))) * float(np.max(np.abs(y)))
    )


def test_jacobi_over_basis():
    # exact over the integers: t[n, i, j, k] = [[e_i, e_j], e_k]_n, the other two terms its cyclic shifts
    c = np.round(STRUCTURE_CONSTANTS).astype(int)
    assert np.array_equal(c, STRUCTURE_CONSTANTS)
    t = np.einsum("mij,nmk->nijk", c, c)
    assert not np.any(t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1))
    # negative control: [e1, e2] = e3 + e4 breaks it ([[e1, e2], e5] = e6, the other terms 0)
    c[3, 0, 1], c[3, 1, 0] = 1, -1
    t = np.einsum("mij,nmk->nijk", c, c)
    assert np.any(t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1))


@given(vec_st, vec_st, vec_st)
def test_jacobi_random(x, y, z):
    r = (
        bracket(bracket(x, y), z)
        + bracket(bracket(y, z), x)
        + bracket(bracket(z, x), y)
    )
    scale = max(1.0, float(np.max(np.abs(x))) * float(np.max(np.abs(y))) * float(np.max(np.abs(z))))
    assert np.max(np.abs(r)) < 1e-10 * scale


def test_metric_is_minus_half_killing_form():
    # Killing form K(e_i, e_j) = tr(ad e_i ad e_j) = c[k, i, l] c[l, j, k]; the
    # orthonormal working metric is B = -K / 2
    killing = np.einsum("kil,ljk->ij", STRUCTURE_CONSTANTS, STRUCTURE_CONSTANTS)
    assert np.array_equal(killing, -2.0 * np.eye(6))


def _koszul_nabla(x, y):
    """Connection components from the Koszul formula on left-invariant fields.

    2 g(nabla_X Y, Z) = g([X,Y], Z) - g([X,Z], Y) - g([Y,Z], X); with the
    orthonormal basis the left side reads off the components directly.
    """
    comps = np.zeros(6)
    for k in range(6):
        z = basis_vector(k)
        comps[k] = 0.5 * (
            np.dot(oracle_bracket(x, y), z)
            - np.dot(oracle_bracket(x, z), y)
            - np.dot(oracle_bracket(y, z), x)
        )
    return comps


def test_nabla_examples_via_koszul():
    e = np.eye(6)
    assert np.array_equal(nabla(e[0], e[1]), 0.5 * e[2])
    assert np.array_equal(nabla(e[0], e[0]), np.zeros(6))
    assert np.array_equal(nabla(e[0], e[3]), np.zeros(6))
    for i in range(6):
        for j in range(6):
            expected = _koszul_nabla(e[i], e[j])
            assert np.max(np.abs(nabla(e[i], e[j]) - expected)) < 1e-14


@given(vec_st, vec_st, vec_st)
def test_metric_compatibility(x, y, z):
    r = np.dot(nabla(x, y), z) + np.dot(y, nabla(x, z))
    scale = max(1.0, float(np.max(np.abs(x))) * float(np.max(np.abs(y))) * float(np.max(np.abs(z))))
    assert abs(r) < 1e-10 * scale


@given(vec_st, vec_st, vec_st)
def test_ad_invariance(x, y, z):
    r = np.dot(bracket(x, y), z) + np.dot(y, bracket(x, z))
    scale = max(1.0, float(np.max(np.abs(x))) * float(np.max(np.abs(y))) * float(np.max(np.abs(z))))
    assert abs(r) < 1e-10 * scale


def test_jacobi_through_bracket_over_basis():
    """The Jacobi sum through bracket() over all 216 basis triples."""
    e = np.eye(6)
    worst = max(
        float(np.max(np.abs(
            bracket(bracket(e[i], e[j]), e[k])
            + bracket(bracket(e[j], e[k]), e[i])
            + bracket(bracket(e[k], e[i]), e[j])
        )))
        for i in range(6) for j in range(6) for k in range(6)
    )
    assert worst == 0.0
