import numpy as np
import pytest

from lpswe.exceptions import PositivityError
from lpswe.fields import ConservedField, Params, sound_speed, to_relaxed


def test_params_defaults():
    p = Params()
    assert p.g == 9.81
    assert p.kappa == 1.01
    assert p.k_cfl == 0.9
    assert p.theta_policy == "corrected"
    assert p.scheme == "EXEX"


@pytest.mark.parametrize("kw", [
    dict(g=0.0), dict(g=-1.0), dict(kappa=1.0), dict(kappa=0.5),
    dict(k_cfl=0.0), dict(k_cfl=1.5), dict(theta_policy="other"),
    dict(scheme="explicit"), dict(solver_tol=0.0), dict(solver_tol=-1.0),
    dict(solver_tol=float("nan")), dict(solver_maxiter=0),
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        Params(**kw)


def test_sound_speed():
    assert sound_speed(4.0, 1.0) == 2.0
    assert sound_speed(0.0, 9.81) == 0.0
    with pytest.raises(ValueError):
        sound_speed(-1.0, 9.81)


def test_relaxed_roundtrip_wide_range():
    rng = np.random.default_rng(7)
    h = 10.0 ** rng.uniform(-6, 6, size=200)
    u = rng.normal(size=(200, 2))
    c = ConservedField(h, h[:, None] * u)
    p = Params()
    r = to_relaxed(c, p)
    assert np.max(np.abs(1.0 / r.tau - h) / h) <= 1e-14
    scale = np.maximum(np.abs(c.hu), 1e-300)
    assert np.max(np.abs(r.u / r.tau[:, None] - c.hu) / scale) <= 1e-13


def test_relaxed_pressure_is_hydrostatic():
    h = np.array([2.0])
    c = ConservedField(h, np.zeros((1, 2)))
    r = to_relaxed(c, Params(g=1.0))
    assert r.pi[0] == pytest.approx(2.0)  # g h^2 / 2 = 1*4/2
    assert r.tau[0] == pytest.approx(0.5)


def test_to_relaxed_rejects_dry_cell():
    h = np.array([1.0, 0.0, 1.0])
    c = ConservedField(h, np.zeros((3, 2)))
    with pytest.raises(PositivityError) as exc:
        to_relaxed(c, Params())
    assert exc.value.cell == 1


def test_to_relaxed_ignores_ghost_entries():
    # with n_interior set, a bad ghost value must not raise
    h = np.array([1.0, 2.0, -1.0])
    c = ConservedField(h, np.zeros((3, 2)))
    r = to_relaxed(c, Params(), n_interior=2)
    assert np.isfinite(r.tau[:2]).all()


def test_copy_is_deep():
    c = ConservedField(np.ones(3), np.zeros((3, 2)))
    d = c.copy()
    d.h[0] = 5.0
    assert c.h[0] == 1.0
