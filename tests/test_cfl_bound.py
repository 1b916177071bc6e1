"""The bound that lets the driver's explicit step skip both CFL passes.

With D = max_j (sum_k l_k / |K_j|) max_k max(tau_j a_k, |u*_k|), the
denominator of ``dt_exex``, dt * D bounds the acoustic and the transport
CFL fraction at any dt; ``dt_exex`` keeps dt * D <= k_cfl / 2.  A bound
handed to ``explicit_acoustic`` or ``combined_update`` only skips the exact
check when it is within the limit, so they still raise whenever the exact
fraction is over it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpswe import mesh as meshmod
from lpswe.acoustic import (ACOUSTIC_CFL_LIMIT, acoustic_cfl_fraction,
                            explicit_acoustic)
from lpswe.driver import (BoundaryCondition, _speed_cell_max, dt_exex,
                          prepare_state, time_level)
from lpswe.exceptions import CFLError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.scenarios import bump_topography
from lpswe.transport import (TRANSPORT_CFL_LIMIT, combined_update,
                             transport_cfl_fraction)

BCS = {"neumann": BoundaryCondition(),
       "periodic": BoundaryCondition.periodic_all()}


@pytest.fixture(scope="module")
def meshes(mixed_mesh):
    assert sorted(np.diff(mixed_mesh.cell_offsets)) == [3] * 7 + [4] * 3 + [5]
    assert mixed_mesh.area.sum() == pytest.approx(1.0, rel=1e-14)
    return {"cartesian": meshmod.build_cartesian(5, 4),
            "triangulated": meshmod.build_triangulated(4, 5),
            "mixed": mixed_mesh}


def _state(mesh, bc, h, hu):
    """Time-n record over the bump, ghosts filled."""
    p = Params()
    z = 0.1 * bump_topography(mesh.centroid[:, 0])
    state = prepare_state(mesh, Topography(z), ConservedField(h, hu), bc, p)
    return p, state, time_level(state)


def _fields(data, n):
    h = data.draw(arrays(float, n, elements=st.floats(1e-3, 1e2)))
    hu = data.draw(arrays(float, (n, 2), elements=st.floats(-1e2, 1e2)))
    return h, hu


KINDS = ("cartesian", "triangulated", "mixed")


@pytest.mark.parametrize("bc", sorted(BCS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dt_bound_covers_both_cfl_fractions(meshes, kind, bc, data):
    mesh = meshes[kind]
    p, state, tn = _state(mesh, BCS[bc], *_fields(data, mesh.n_cells))
    r, fluxes = tn.relaxed, tn.fluxes
    D = _speed_cell_max(mesh, r.tau, fluxes, transport_only=False)
    dt = dt_exex(mesh, r.tau, fluxes, p, np.inf)
    assert dt * D <= 0.5 * p.k_cfl * (1.0 + 1e-15)
    # The acoustic fraction has at least a factor 2 to spare (no face is
    # longer than the rest of its convex cell's perimeter); the transport
    # fraction can meet the bound, up to the roundoff of its sums.
    assert acoustic_cfl_fraction(mesh, r.tau, fluxes, dt) <= dt * D
    assert (transport_cfl_fraction(mesh, fluxes, dt)
            <= dt * D * (1.0 + 1e-12))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bound_over_limit_still_raises(meshes, kind, data):
    mesh = meshes[kind]
    p, state, tn = _state(mesh, BCS["periodic"],
                          *_fields(data, mesh.n_cells))
    r, fluxes = tn.relaxed, tn.fluxes
    D = _speed_cell_max(mesh, r.tau, fluxes, transport_only=False)
    dt = dt_exex(mesh, r.tau, fluxes, p, np.inf)

    # A bound over the limit sends the step to the exact fraction: within
    # it, the result is that of the step without any bound.
    ref = explicit_acoustic(tn, mesh, dt, state.donor)
    ac = explicit_acoustic(tn, mesh, dt, state.donor, cfl_bound=np.inf)
    assert np.array_equal(ac.relaxed.u, ref.relaxed.u)
    out = combined_update(state.conserved, ac, mesh, p, dt, cfl_bound=np.inf)
    assert np.array_equal(
        out.hu, combined_update(state.conserved, ref, mesh, p, dt).hu)

    # Over it, both raise.
    dt_big = dt / acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
    assert dt_big * D > ACOUSTIC_CFL_LIMIT
    with pytest.raises(CFLError, match="acoustic CFL"):
        explicit_acoustic(tn, mesh, dt_big, state.donor,
                          cfl_bound=dt_big * D)
    frac = transport_cfl_fraction(mesh, fluxes, dt)
    if frac > 0.0:
        dt_big = 2.0 * dt / frac
        assert dt_big * D > TRANSPORT_CFL_LIMIT
        with pytest.raises(CFLError, match="transport CFL"):
            combined_update(state.conserved, ac, mesh, p, dt_big,
                            cfl_bound=dt_big * D)
