import numpy as np
import pytest

from lpswe.acceptance import strip_vs_1d
from lpswe.exceptions import PositivityError
from lpswe.fields import Params
from lpswe.reference1d import State1D, dt_1d, run1d, step1d
from lpswe.scenarios import bump_topography


def _lake(nx=50):
    dx = 1.0 / nx
    xc = (np.arange(nx) + 0.5) * dx
    z = bump_topography(xc)
    h = 0.5 - z
    return State1D(dx, h, np.zeros(nx), np.zeros(nx), z)


def test_lake_at_rest_fixed_point_explicit():
    p = Params()
    s = _lake()
    dt = dt_1d(s, p, dt_max=1.0)
    out = step1d(s, p, dt)
    assert np.max(np.abs(out.h + out.z - 0.5)) < 1e-15
    assert np.max(np.abs(out.u1)) < 1e-14


def test_lake_at_rest_fixed_point_implicit():
    p = Params(scheme="IMEX")
    s = _lake()
    out = step1d(s, p, 0.01)
    assert np.max(np.abs(out.h + out.z - 0.5)) < 1e-12
    assert np.max(np.abs(out.u1)) < 1e-12


def test_transverse_velocity_advected_not_forced():
    # u2 must stay untouched by the acoustic step; uniform u2 with uniform
    # everything else stays uniform
    p = Params()
    nx = 20
    s = State1D(1.0 / nx, np.ones(nx), np.full(nx, 0.4),
                np.full(nx, -0.7), np.zeros(nx))
    out = step1d(s, p, 1e-3)
    assert np.max(np.abs(out.u2 + 0.7)) < 1e-14


def test_dam_break_shock_moves_right():
    p = Params()
    nx = 100
    dx = 1.0 / nx
    xc = (np.arange(nx) + 0.5) * dx
    h = np.where(xc <= 0.5, 0.5, 1.0)
    s = State1D(dx, h, np.zeros(nx), np.zeros(nx), np.zeros(nx))
    out, steps = run1d(s, p, 0.05)
    assert steps > 0
    # intermediate state forms around the dam; far fields untouched
    assert out.h[49] > 0.51
    assert out.h[10] == pytest.approx(0.5, abs=1e-9)
    assert out.h[90] == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.h > 0.0)


def test_run1d_mass_conserved_neumann_still_edges():
    p = Params()
    s = _lake(40)
    dx = s.dx
    m0 = dx * s.h.sum()
    out, _ = run1d(s, p, 0.05)
    assert abs(dx * out.h.sum() - m0) <= 1e-13 * m0


def test_imex_runs_dam_break():
    p = Params(scheme="IMEX")
    nx = 100
    dx = 1.0 / nx
    xc = (np.arange(nx) + 0.5) * dx
    z = bump_topography(xc)
    h = np.where(xc <= 0.5, 0.5, 1.0) - z
    s = State1D(dx, h, np.zeros(nx), np.zeros(nx), z)
    out, steps = run1d(s, p, 0.05)
    assert np.all(out.h > 0.0)
    assert steps > 0


@pytest.mark.parts
def test_positivity_error_on_forced_vacuum():
    p = Params()
    nx = 10
    s = State1D(0.1, np.full(nx, 1e-3),
                np.concatenate([np.full(5, -5.0), np.full(5, 5.0)]),
                np.zeros(nx), np.zeros(nx))
    with pytest.raises(PositivityError):
        step1d(s, p, 0.05)


def test_strip_equivalence_both_schemes():
    assert strip_vs_1d("EXEX") <= 1e-12
    assert strip_vs_1d("IMEX") <= 1e-12
