"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria 1-9 call the shared implementations in axiscone.acceptance (the
same code the `axiscone selftest` command runs); criterion 10 runs the full
selftest twice and requires byte-identical reports.
"""

import math

import numpy as np
import pytest

from axiscone import acceptance
from axiscone.acceptance import CRITERIA, RUNTIME_BUDGETS
from axiscone.harness import selftest
from axiscone.schrodinger import GridSpec, MagneticModel
from reference_loops import assembled_magnetic

MASTER_SEED = 0


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(MASTER_SEED)
    budget = RUNTIME_BUDGETS[result.number]
    line = (f"{'PASS' if result.passed else 'FAIL'} criterion {result.number} "
            f"({result.name}): {result.detail} [{result.elapsed:.2f}s "
            f"of {budget:.0f}s budget]")
    print(line)
    assert result.passed, line
    assert result.elapsed < budget, f"criterion {result.number} exceeded {budget}s"


def test_criterion_10_determinism():
    first = selftest(seed=MASTER_SEED)
    second = selftest(seed=MASTER_SEED)
    identical = first.render(timestamp=False).encode() == second.render(
        timestamp=False
    ).encode()
    print(f"{'PASS' if identical and first.passed else 'FAIL'} criterion 10 "
          f"(determinism): selftest byte-identical={identical}")
    assert first.passed
    assert identical


def test_criterion_8_builds_the_complex_hamiltonian():
    model = MagneticModel.from_functions(GridSpec(6, 0.4), lambda x: x * x,
                                         lambda x: math.exp(-x * x))
    for e in (0.0, 0.008, 0.5):
        np.testing.assert_allclose(acceptance._complex_hamiltonian(model, e),
                                   assembled_magnetic(model, e), rtol=0.0, atol=1e-13)


def flip_odd_even_sign(terms):
    h0, m1, m2 = (np.array(term) for term in terms)
    even = np.arange(1, len(m1) - 2, 2)
    m1[even + 1, even + 2] *= -1.0
    m1[even + 2, even + 1] *= -1.0
    return h0, m1, m2


def drop_delta0_sqrt2(terms):
    h0, m1, m2 = (np.array(term) for term in terms)
    m1[0, 2] = m1[2, 0] = m1[0, 2] / math.sqrt(2.0)
    return h0, m1, m2


@pytest.mark.parametrize("mutate", [flip_odd_even_sign, drop_delta0_sqrt2])
def test_criterion_8_fails_on_a_wrong_magnetic_term(mutate, monkeypatch):
    # the spectrum of H_r(e) moves off the complex H(e)'s
    terms = acceptance.magnetic_terms
    monkeypatch.setattr(acceptance, "magnetic_terms", lambda model: mutate(terms(model)))
    result = acceptance.criterion_8_correspondence(MASTER_SEED)
    assert not result.passed and result.detail.startswith("models=48 failures=")
