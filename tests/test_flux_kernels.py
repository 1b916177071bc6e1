import numpy as np
import pytest

from lpswe.fields import Params
from lpswe.flux_kernels import (evaluate_face_fluxes, hydrostatic_source,
                                impedance, interface_pressures,
                                interface_velocity, theta_policy)
from lpswe.mesh import _mesh_from_cells


def _two_cell_mesh(ang):
    """Two unit squares side by side, rotated by ``ang`` about the origin."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                      [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    R = np.array([[np.cos(ang), -np.sin(ang)],
                  [np.sin(ang), np.cos(ang)]])
    return _mesh_from_cells(verts @ R.T, [0, 4, 8],
                            [0, 1, 4, 3, 1, 2, 5, 4]), R


def test_impedance_hand_value():
    # kappa * max(h c) with g = 1: max(1*1, 4*2) = 8, times 1.01
    p = Params(g=1.0)
    assert impedance(1.0, 4.0, p) == pytest.approx(8.08, rel=1e-14)


def test_impedance_symmetry_and_subcharacteristic():
    p = Params()
    rng = np.random.default_rng(3)
    hl = rng.uniform(0.1, 5.0, 50)
    hr = rng.uniform(0.1, 5.0, 50)
    a = impedance(hl, hr, p)
    assert np.array_equal(a, impedance(hr, hl, p))
    assert np.all(a > hl * np.sqrt(p.g * hl))
    assert np.all(a > hr * np.sqrt(p.g * hr))


def test_impedance_rejects_dry():
    with pytest.raises(ValueError):
        impedance(0.0, 1.0, Params())


def test_hydrostatic_source_antisymmetric():
    s = hydrostatic_source(1.0, 3.0, 0.2, 0.7, 9.81)
    assert s == pytest.approx(9.81 * 2.0 * 0.5)
    # a consistent swap flips the sign exactly
    assert hydrostatic_source(3.0, 1.0, 0.7, 0.2, 9.81) == -s


def test_hydrostatic_source_flat_bottom_zero():
    assert hydrostatic_source(1.0, 2.0, 0.3, 0.3, 9.81) == 0.0


def test_interface_velocity_symmetric_rest():
    # at rest with equal pressures and no source the interface is still
    assert interface_velocity(0.0, 0.0, 5.0, 5.0, 8.0, 0.0) == 0.0


def test_interface_velocity_lake_at_rest_cancellation():
    # lake at rest: Pi = g h^2/2 with h = H - z; the pressure jump must
    # cancel the source bracket exactly
    g, H = 9.81, 0.5
    zl, zr = 0.1, 0.3
    hl, hr = H - zl, H - zr
    src = hydrostatic_source(hl, hr, zl, zr, g)
    pil, pir = g * hl * hl / 2.0, g * hr * hr / 2.0
    u = interface_velocity(0.0, 0.0, pil, pir, 8.0, src)
    assert abs(u) < 1e-16


def test_theta_policy_bounds():
    p = Params()
    th = theta_policy(np.array([0.0, 0.1, 100.0]), 1.0, 1.0, p)
    c = np.sqrt(9.81)
    assert th[0] == 0.0
    assert th[1] == pytest.approx(0.1 / c)
    assert th[2] == 1.0


def test_theta_policy_unity():
    p = Params(theta_policy="unity")
    th = theta_policy(np.array([0.0, 5.0]), 1.0, 1.0, p)
    assert np.array_equal(th, [1.0, 1.0])


def test_interface_pressures_hand_value():
    # zero velocity jump: pi_c = (0.45+0.8)/2 = 0.625; src = -0.35 shifts
    # the two sides to 0.45 and 0.8
    pl, pr = interface_pressures(0.45, 0.8, 0.0, 0.0, 8.0, 1.0, -0.35)
    assert pl == pytest.approx(0.45)
    assert pr == pytest.approx(0.8)


def test_interface_pressures_jump_dissipation():
    # velocity jump adds -theta*a*(du)/2 to both sides
    pl, pr = interface_pressures(1.0, 1.0, 0.0, 0.5, 4.0, 0.5, 0.0)
    assert pl == pytest.approx(1.0 - 0.5 * 4.0 * 0.5 / 2.0)
    assert pl == pr


def test_face_flux_rotational_invariance():
    # the same cell states on a rotated mesh, with rotated velocities, give
    # identical interface quantities on every face
    p = Params()
    rng = np.random.default_rng(11)
    m0, _ = _two_cell_mesh(0.0)
    n = m0.n_total
    for _ in range(20):
        mr, R = _two_cell_mesh(rng.uniform(0, 2 * np.pi))
        assert np.allclose(mr.face_normal, m0.face_normal @ R.T, atol=1e-15)
        u = rng.normal(size=(n, 2))
        h = rng.uniform(0.5, 2.0, n)
        pi = rng.uniform(1.0, 5.0, n)
        z = rng.uniform(0.0, 0.3, n)
        f0 = evaluate_face_fluxes(m0, u, pi, h, z, p)
        fr = evaluate_face_fluxes(mr, u @ R.T, pi, h, z, p)
        assert np.allclose(f0.u_star, fr.u_star, rtol=0, atol=1e-13)
        assert np.allclose(f0.pi_star_L, fr.pi_star_L, rtol=0, atol=1e-12)
        assert np.allclose(f0.pi_star_R, fr.pi_star_R, rtol=0, atol=1e-12)


def test_face_flux_galilean_consistency_at_rest():
    # equal states, no topography jump: u_star is the common normal speed
    # and the interface pressures equal the common pressure
    p = Params()
    m, _ = _two_cell_mesh(0.3)
    n = m.n_total
    u = np.tile([0.7, -0.2], (n, 1))
    f = evaluate_face_fluxes(m, u, np.full(n, 19.62), np.full(n, 2.0),
                             np.full(n, 0.1), p)
    assert np.allclose(f.u_star, m.face_normal @ [0.7, -0.2],
                       rtol=0, atol=1e-15)
    assert np.allclose(f.pi_star_L, 19.62, rtol=1e-15)
    assert np.allclose(f.pi_star_R, 19.62, rtol=1e-15)


def test_given_sound_speeds_match_computed_ones():
    # evaluate_face_fluxes takes sqrt(g h) once per cell and passes it in;
    # the kernels must give the same bits as when they take it themselves
    rng = np.random.default_rng(4)
    hl, hr = rng.uniform(0.1, 5.0, (2, 40))
    us = rng.normal(size=40)
    p = Params()
    cl, cr = np.sqrt(p.g * hl), np.sqrt(p.g * hr)
    assert np.array_equal(impedance(hl, hr, p, cl, cr), impedance(hl, hr, p))
    assert np.array_equal(theta_policy(us, hl, hr, p, cl, cr),
                          theta_policy(us, hl, hr, p))


@pytest.mark.parametrize("cell", [0, 1, 2])
def test_face_fluxes_reject_dry_cell(cell):
    # cells 0 and 1 are interior, 2 is the first ghost
    m, _ = _two_cell_mesh(0.0)
    n = m.n_total
    h = np.ones(n)
    h[cell] = 0.0
    with pytest.raises(ValueError, match="non-positive depth"):
        evaluate_face_fluxes(m, np.zeros((n, 2)), np.ones(n), h,
                             np.zeros(n), Params())


def test_face_fluxes_carry_time_n_source_bracket():
    p = Params()
    m, _ = _two_cell_mesh(0.4)
    rng = np.random.default_rng(2)
    n = m.n_total
    h, z = rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 0.3, n)
    f = evaluate_face_fluxes(m, rng.normal(size=(n, 2)), np.ones(n), h, z, p)
    o, nb = m.face_owner, m.face_neighbor
    assert np.array_equal(f.src, hydrostatic_source(h[o], h[nb], z[o], z[nb],
                                                    p.g))
