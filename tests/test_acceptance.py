"""Desk-scale acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (outside the
pytest capture so the verdict always shows in the log) and asserts it.
Run directly with `pytest tests/test_acceptance.py -v` or via the CLI
`lpswe verify`.  The criteria that take over 5 s are marked ``slow``.
"""

import pytest

from lpswe import acceptance


@pytest.fixture
def check(capsys):
    def _check(result):
        with capsys.disabled():
            print(result.line(), flush=True)
        assert result.passed, result.line()
    return _check


def test_criterion_01_well_balanced(check):
    check(acceptance.criterion_1_well_balanced())


def test_criterion_02_conservation(check):
    check(acceptance.criterion_2_conservation())


@pytest.mark.slow
def test_criterion_03_positivity_fuzz(check):
    check(acceptance.criterion_3_positivity())


@pytest.mark.slow
def test_criterion_04_dam_break_1d_2d(check):
    check(acceptance.criterion_4_dam_break())


@pytest.mark.slow
def test_criterion_05_low_froude_correction(check):
    check(acceptance.criterion_5_low_froude())


@pytest.mark.slow
def test_criterion_06_imex_step_count(check):
    check(acceptance.criterion_6_imex_step_count())


@pytest.mark.slow
def test_criterion_07_vortex_topography(check):
    check(acceptance.criterion_7_vortex_topography())


def test_criterion_08_equivalence_oracles(check):
    check(acceptance.criterion_8_equivalence_oracles())


def test_criterion_09_rotational_invariance(check):
    check(acceptance.criterion_9_rotational_invariance())


@pytest.mark.slow
def test_criterion_10_convergence(check):
    check(acceptance.criterion_10_convergence())
