"""Acceptance gate: every release criterion at its stated tolerance.

Each test runs one criterion end to end and prints its pass/fail line, so a
verbose pytest run doubles as the acceptance report.  The implementations
live in arithsurf.selftest and are shared with the CLI selftest subcommand.
"""

import random

import pytest

from arithsurf.selftest import ALL_CRITERIA, _gauss_rank_p, _gauss_rank_q
from oracles import gauss_rank, rank_mod_p


@pytest.mark.parametrize("number", sorted(ALL_CRITERIA))
def test_criterion(number, capsys):
    result = ALL_CRITERIA[number]()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.details


def test_bareiss_rank_matches_fraction_gauss():
    # random integer matrices, a third of them with rows that are
    # combinations of earlier rows
    rng = random.Random(5)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 1 / 3 and m > 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[m // 2])]
        assert _gauss_rank_q(rows) == gauss_rank(rows), rows
    assert _gauss_rank_q([]) == 0 and _gauss_rank_q([[0, 0], [0, 0]]) == 0


def test_mod_p_rank_matches_the_reference_rref():
    # the F_p half of the criteria oracle against reference_rref_mod, on
    # matrices with repeated rows mod p and with dependent rows
    rng = random.Random(7)
    for trial in range(300):
        p = (2, 3, 5, 7)[trial % 4]
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 1 / 3 and m > 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[m // 2])]
        if rng.random() < 1 / 4 and m > 1:
            rows[1] = [x + p * rng.randint(-2, 2) for x in rows[0]]
        assert _gauss_rank_p(rows, p) == rank_mod_p(rows, p), (rows, p)
    assert _gauss_rank_p([], 3) == 0 and _gauss_rank_p([[3, 6], [0, 9]], 3) == 0
