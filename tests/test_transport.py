import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.acoustic import explicit_acoustic
from lpswe.driver import BoundaryCondition, prepare_state, time_level
from lpswe.exceptions import CFLError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.scenarios import bump_topography, dam_break
from lpswe.tests_support import combined_vs_two_step
from lpswe.transport import (combined_update, transport,
                             transport_cfl_fraction)


def _acoustic_step(nx=8, ny=8, dt=1e-4):
    p = Params()
    mesh = meshmod.build_cartesian(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    return p, mesh, state, ac, dt


def test_combined_equals_two_step():
    assert combined_vs_two_step() <= 1e-12


def test_transport_constant_state_preserved():
    p = Params()
    mesh = meshmod.build_triangulated(5, 5)
    h = np.full(mesh.n_cells, 2.0)
    u = np.tile([0.3, -0.1], (mesh.n_cells, 1))
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic,
                          BoundaryCondition(), p)
    ac = explicit_acoustic(time_level(state), mesh, 1e-4, state.donor)
    out = transport(ac.relaxed, ac.fluxes, mesh, p, 1e-4)
    n = mesh.n_cells
    assert np.max(np.abs(out.h[:n] - 2.0)) < 1e-13
    assert np.max(np.abs(out.hu[:n] / 2.0 - u)) < 1e-13


def test_transport_cfl_fraction_scaling():
    p, mesh, state, ac, dt = _acoustic_step()
    f1 = transport_cfl_fraction(mesh, ac.fluxes, dt)
    f2 = transport_cfl_fraction(mesh, ac.fluxes, 2 * dt)
    assert f2 == pytest.approx(2.0 * f1)
    assert f1 >= 0.0


def test_transport_raises_on_cfl_violation():
    p, mesh, state, ac, dt = _acoustic_step()
    with pytest.raises(CFLError):
        transport(ac.relaxed, ac.fluxes, mesh, p, dt=1e3)


def test_combined_update_mass_conservation_periodic():
    p = Params()
    mesh = meshmod.build_cartesian(10, 10)
    rng = np.random.default_rng(5)
    h = rng.uniform(0.5, 1.5, mesh.n_cells)
    u = 0.2 * rng.normal(size=(mesh.n_cells, 2))
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic,
                          BoundaryCondition.periodic_all(), p)
    dt = 1e-4
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    out = combined_update(state.conserved, ac, mesh, p, dt)
    n = mesh.n_cells
    m0 = np.sum(mesh.area * state.conserved.h[:n])
    m1 = np.sum(mesh.area * out.h[:n])
    assert abs(m1 - m0) <= 1e-14 * m0


def test_upwind_direction():
    # pure translation to the right: the upstream (left) value propagates
    p = Params()
    mesh = meshmod.build_cartesian(10, 1)
    h = np.full(10, 1.0)
    h[:5] = 2.0
    u = np.tile([1.0, 0.0], (10, 1))
    # uniform velocity, flat bottom; Pi jumps, so use tiny dt and check
    # the mass flux sign at the jump face only
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(10)), ic,
                          BoundaryCondition(), p)
    dt = 1e-5
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    out = transport(ac.relaxed, ac.fluxes, mesh, p, dt)
    # cell 5 receives mass from cell 4
    assert out.h[5] > 1.0
    # far-field cells unaffected
    assert out.h[8] == pytest.approx(1.0, abs=1e-12)
