import random

import sympy
from sympy.matrices.normalforms import smith_normal_form

from knotfield.smith import smith_invariants


def oracle_invariants(rows):
    mat = sympy.Matrix(rows)
    snf = smith_normal_form(mat, domain=sympy.ZZ)
    diag = [abs(snf[i, i]) for i in range(min(snf.shape))]
    return [int(d) for d in diag if d != 0]


def test_known_matrix():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_invariants(rows) == oracle_invariants(rows) == [2, 2, 156]


def test_zero_matrix():
    assert smith_invariants([[0, 0], [0, 0]]) == []


def test_identity():
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]


def test_divisibility_chain_random():
    rng = random.Random(30)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        bound = rng.choice([1, 6, 100, 10**6])
        zeros = rng.random()
        mat = [
            [0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)
        ]
        ours = smith_invariants(mat)
        assert ours == oracle_invariants(mat)
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0


def test_rectangular_shapes():
    assert smith_invariants([[3, 6, 9]]) == [3]
    assert smith_invariants([[3], [6], [9]]) == [3]
