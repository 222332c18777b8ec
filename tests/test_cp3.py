"""The projective correspondence and its convention-pinning fixtures."""

import numpy as np
import pytest

from conftest import oracle_acs_to_cp3, oracle_cp3_to_acs, oracle_identify, oracle_identify_inverse, random_rotation3
from twistorz.acs import ank_reference_acs, hopf_acs, random_acs, vertex_acs
from twistorz.cp3 import (
    _FORWARD,
    _INVERSE,
    CP3Point,
    _normalized,
    acs_to_cp3,
    cp3_to_acs,
    identify,
    tetra_coords,
    wedge4,
)

HOPF_POINT = CP3Point(np.array([1, 0, 0, -1], dtype=complex))
SWAP_POINT = CP3Point(np.array([1, 1, -1, 1], dtype=complex))


def test_identification_table_lines():
    # v0 ^ v1 -> (e1 + i e2) / 2
    w = identify(np.array([1, 0, 0, 0, 0, 0], dtype=complex))
    assert np.allclose(w, [0.5, 0.5j, 0, 0, 0, 0])
    # v1 ^ v2 -> (e5 - i e6) / 2
    w = identify(np.array([0, 0, 0, 0, 0, 1], dtype=complex))
    assert np.allclose(w, [0, 0, 0, 0, 0.5, -0.5j])


def test_identify_round_trip(rng):
    # the library's identification against the table read line by line
    for _ in range(50):
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.max(np.abs(oracle_identify_inverse(identify(b)) - b)) < 1e-14
        u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.max(np.abs(identify(wedge4(u, v)) - oracle_identify(u, v))) < 1e-14


def test_wedge4_antisymmetry(rng):
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.max(np.abs(wedge4(u, v) + wedge4(v, u))) == 0.0
    assert np.max(np.abs(wedge4(u, u))) == 0.0


def test_vertex_points_forward():
    for k in range(4):
        corner = np.zeros(4, dtype=complex)
        corner[k] = 1.0
        acs = cp3_to_acs(CP3Point(corner))
        assert np.max(np.abs(acs.matrix - vertex_acs(k).matrix)) < 1e-12


def test_vertex_points_backward_exact():
    for k in range(4):
        corner = np.zeros(4, dtype=complex)
        corner[k] = 1.0
        point = acs_to_cp3(vertex_acs(k))
        assert point.projective_distance(CP3Point(corner)) < 1e-12


def test_named_fixture_points():
    assert acs_to_cp3(hopf_acs()).projective_distance(HOPF_POINT) < 1e-12
    assert acs_to_cp3(ank_reference_acs()).projective_distance(SWAP_POINT) < 1e-12
    assert np.max(np.abs(cp3_to_acs(HOPF_POINT).matrix - hopf_acs().matrix)) < 1e-12
    assert np.max(np.abs(cp3_to_acs(SWAP_POINT).matrix - ank_reference_acs().matrix)) < 1e-12


def test_round_trip_bijection(rng):
    worst = 0.0
    for _ in range(1000):
        coords = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = CP3Point(coords)
        q = acs_to_cp3(cp3_to_acs(p))
        worst = max(worst, p.projective_distance(q))
    assert worst < 1e-8


def test_acs_round_trip(rng):
    for seed in range(100):
        acs = random_acs(seed)
        back = cp3_to_acs(acs_to_cp3(acs))
        assert np.max(np.abs(back.matrix - acs.matrix)) < 1e-8


def test_eigenspace_isotropy(rng):
    # every +i eigenvector pairs to zero with itself under the bilinear
    # extension of the metric
    for seed in range(50):
        acs = random_acs(seed)
        i_star = acs.matrix.T
        for _ in range(5):
            alpha = rng.standard_normal(6)
            w = alpha - 1j * (i_star @ alpha)
            assert abs(np.sum(w * w)) < 1e-10


def test_tetra_coords_examples():
    assert np.allclose(tetra_coords(CP3Point(np.array([1, 0, 0, 0]))), [1, 0, 0, 0])
    assert np.allclose(tetra_coords(SWAP_POINT), [0.25, 0.25, 0.25, 0.25])
    assert np.allclose(tetra_coords(HOPF_POINT), [0.5, 0, 0, 0.5])


def test_phase_normalization():
    p = CP3Point(np.array([1j, 0, 0, -1j]))
    n = _normalized(p.coords)
    assert n[0].real > 0 and abs(n[0].imag) < 1e-15
    # idempotent
    again = _normalized(n)
    assert np.max(np.abs(again - n)) < 1e-15


def test_rejects_zero_point():
    with pytest.raises(ValueError):
        CP3Point(np.zeros(4, dtype=complex))


@pytest.mark.parametrize("shape", [(3,), (2, 5)])
def test_rejects_a_last_axis_other_than_4(shape):
    with pytest.raises(ValueError) as excinfo:
        CP3Point(np.ones(shape, dtype=complex))
    assert str(excinfo.value) == "expected 4 finite complex coordinates"


def _projective_map_from_images(images, extra_image):
    """PGL(4) element from the images of the four corners plus [1,1,1,1]."""
    basis = np.column_stack([img.coords for img in images])
    lam = np.linalg.solve(basis, extra_image.coords)
    return basis @ np.diag(lam)


def test_conjugation_equivariance(rng):
    o1 = random_rotation3(rng)
    o2 = random_rotation3(rng)
    q = np.zeros((6, 6))
    q[0:3, 0:3] = o1
    q[3:6, 3:6] = o2

    corner_images = [acs_to_cp3(vertex_acs(k).conjugate(q)) for k in range(4)]
    ones = CP3Point(np.array([1, 1, 1, 1], dtype=complex))
    extra_image = acs_to_cp3(cp3_to_acs(ones).conjugate(q))
    m = _projective_map_from_images(corner_images, extra_image)

    worst = 0.0
    for seed in range(100):
        acs = random_acs(seed)
        p = acs_to_cp3(acs)
        direct = acs_to_cp3(acs.conjugate(q))
        mapped = CP3Point(m @ p.coords)
        worst = max(worst, direct.projective_distance(mapped))
    assert worst < 1e-6


# --- the linear maps against the eigenspace oracles ---------------------------


def test_linear_maps_are_exact_and_conformal(rng):
    assert set(np.unique(_FORWARD)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(_INVERSE, _FORWARD.T / 8.0)
    # F kills the identity and scales traceless Hermitian matrices by sqrt(8)
    assert np.max(np.abs(_FORWARD @ np.eye(4, dtype=complex).view(float).ravel())) == 0.0
    for _ in range(20):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4.0 * np.eye(4)
        x = h.view(float).ravel()
        assert np.max(np.abs(_FORWARD.T @ (_FORWARD @ x) - 8.0 * x)) < 1e-12


def test_forward_matches_eigenspace_solve(rng):
    worst = 0.0
    for _ in range(300):
        coords = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        acs = cp3_to_acs(CP3Point(coords))
        worst = max(worst, float(np.max(np.abs(acs.matrix - oracle_cp3_to_acs(coords)))))
    assert worst <= 1e-12


def test_inverse_matches_annihilator(rng):
    worst = 0.0
    for seed in range(300):
        acs = random_acs([seed, 7])
        target = CP3Point(oracle_acs_to_cp3(acs.matrix))
        worst = max(worst, acs_to_cp3(acs).projective_distance(target))
    assert worst <= 1e-12


def test_fixture_points_have_literal_zeros():
    for k in range(4):
        corner = np.zeros(4, dtype=complex)
        corner[k] = 1.0
        assert np.array_equal(acs_to_cp3(vertex_acs(k)).coords, corner)
        assert np.array_equal(cp3_to_acs(CP3Point(corner)).matrix, vertex_acs(k).matrix)
    hopf = acs_to_cp3(hopf_acs())
    assert np.array_equal(hopf.coords[1:3], [0.0, 0.0])
    assert np.array_equal(tetra_coords(hopf), [0.5, 0.0, 0.0, 0.5])
    assert np.array_equal(cp3_to_acs(HOPF_POINT).matrix, hopf_acs().matrix)
    assert np.array_equal(cp3_to_acs(SWAP_POINT).matrix, ank_reference_acs().matrix)
    assert np.array_equal(tetra_coords(acs_to_cp3(ank_reference_acs())), [0.25] * 4)


@pytest.mark.parametrize("scale", [1e-300, 1e300, 5e307, 1e-310, 1e-320, 5e-324])
def test_projective_input_is_scale_invariant(scale):
    coords = np.array([1, 1 + 2j, 0.5, -3j])
    if scale < 1e-307:
        # the same point with integer parts, so scale * coords stays exact
        # among subnormals (0.5 * 5e-324 rounds to 0)
        coords = 2 * coords
    small, big = CP3Point(coords), CP3Point(scale * coords)
    assert big.projective_distance(small) <= 1e-15
    assert np.max(np.abs(_normalized(big.coords) - _normalized(small.coords))) <= 1e-15
    assert np.max(np.abs(tetra_coords(big) - tetra_coords(small))) <= 1e-15
    assert np.max(np.abs(cp3_to_acs(big).matrix - cp3_to_acs(small).matrix)) <= 1e-15


def test_projective_distance_is_exact_and_nonnegative(rng):
    points = [HOPF_POINT, SWAP_POINT, CP3Point(np.array([1, 2j, 0.3, -1]))]
    points += [CP3Point(np.eye(4)[k]) for k in range(4)]
    for p in points:
        assert p.projective_distance(p) == 0.0
        assert p.projective_distance(CP3Point((0.5 - 2j) * p.coords)) >= 0.0
    for _ in range(500):
        p, q = (CP3Point(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(2))
        assert p.projective_distance(q) >= 0.0
        assert p.projective_distance(p) >= 0.0


@pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9])
def test_projective_distance_resolves_small_offsets(rng, offset):
    p = rng.normal(size=4) + 1j * rng.normal(size=4)
    p /= np.linalg.norm(p)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v -= np.vdot(p, v) * p
    v /= np.linalg.norm(v)
    # the sine of the angle to p + offset v, orthogonal to p, is offset to first order
    distance = CP3Point(p).projective_distance(CP3Point(p + offset * v))
    assert abs(distance - offset) <= 1e-2 * offset
    assert CP3Point(p).projective_distance(CP3Point((2 - 1j) * p)) <= 1e-15
