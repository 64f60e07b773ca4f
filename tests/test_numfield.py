"""Quadratic fields, splitting, factored ideals.

The splitting oracle is exhaustive: the set of nonzero squares mod p
computed by squaring every residue, with ramification read off the
discriminant directly.
"""

import math
import random

import pytest
import sympy

from knotfield.errors import (
    FieldMismatch,
    NotPrime,
    PerfectSquare,
    TooLargeToFactor,
)
from knotfield.numfield import (
    INERT,
    RAMIFIED,
    SPLIT,
    FactoredIdeal,
    PrimeIdealSymbol,
    contains,
    ideal_chain,
    ideals_of_norm,
    is_prime,
    make_field,
    smallest_non_inert_prime,
    split_prime,
    square_free_part,
)


def oracle_kind(disc, p):
    if disc % p == 0:
        return RAMIFIED
    squares = {(x * x) % p for x in range(1, p)}
    return SPLIT if disc % p in squares else INERT


def primes_below(n):
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    return [i for i, flag in enumerate(sieve) if flag]


class TestMakeField:
    def test_golden(self):
        field = make_field(5)
        assert field.square_free == 5
        assert field.discriminant == 5
        assert field.integer_basis == "Z[(1+sqrt(5))/2]"
        assert field.field_str() == "Q(sqrt(5))"

    def test_non_square_free_input(self):
        field = make_field(525)
        assert field.radicand_raw == 525
        assert field.square_free == 21
        assert field.discriminant == 21  # 21 is 1 mod 4
        assert field.integer_basis == "Z[(1+sqrt(21))/2]"

    def test_two_mod_four(self):
        field = make_field(8)
        assert field.square_free == 2
        assert field.discriminant == 8
        assert field.integer_basis == "Z[sqrt(2)]"

    def test_perfect_square(self):
        with pytest.raises(PerfectSquare):
            make_field(4)
        with pytest.raises(PerfectSquare):
            make_field(49)

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_field(1)

    def test_too_large(self):
        # 2**63 + 1 = 3**3 * 19 * 43 * 5419 * 77158673929
        assert make_field(2**63 + 1).square_free == 1024819115206086201
        with pytest.raises(TooLargeToFactor, match="9261189630804300341"):
            make_field(2100001 * 2100011 * 2100031)

    def test_json(self):
        # the four attributes a JSON rendering of the field would carry
        field = make_field(5)
        assert (field.radicand_raw, field.square_free, field.discriminant, field.integer_basis) == (
            5,
            5,
            5,
            "Z[(1+sqrt(5))/2]",
        )


class TestSquareFree:
    def test_examples(self):
        assert square_free_part(525) == 21
        assert square_free_part(12) == 3
        assert square_free_part(8) == 2
        assert square_free_part(5) == 5

    def test_random_against_reconstruction(self):
        rng = random.Random(70)
        for _ in range(200):
            n = rng.randint(2, 10**6)
            d = square_free_part(n)
            assert n % d == 0
            ratio = n // d
            root = int(ratio**0.5)
            assert max(root - 1, 0) ** 2 <= ratio
            assert any((root + delta) ** 2 == ratio for delta in (-1, 0, 1))

    def test_large_prime_cofactors(self):
        p = 2_147_483_647  # prime above the trial bound
        assert square_free_part(4 * p) == p
        assert square_free_part(p * p) == 1
        assert square_free_part(2**63 + 1) == 3 * 19 * 43 * 5419 * 77158673929
        # p**2 * q above the cube of the trial bound: not a square, not prime
        with pytest.raises(TooLargeToFactor, match="9261057330048300011"):
            square_free_part(2100001**2 * 2100011)

    def test_random_against_sympy(self):
        # an answer is sympy's square-free part; a refusal is allowed, a
        # wrong value is not.  Half the inputs carry a square above the bound.
        rng = random.Random(71)
        for i in range(30):
            if i % 2:
                n = rng.randint(1, 10 ** rng.randint(1, 6)) * rng.randint(1, 10 ** rng.randint(1, 12)) ** 2
            else:
                n = rng.randint(2, 10 ** rng.randint(1, 30))
            try:
                d = square_free_part(n)
            except TooLargeToFactor as exc:
                assert str(n) in str(exc)
                continue
            assert d == math.prod(p for p, e in sympy.factorint(n).items() if e % 2), n


class TestIsPrime:
    def test_small(self):
        assert [n for n in range(2, 40) if is_prime(n)] == primes_below(40)[0:]

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(1)

    def test_large(self):
        assert is_prime(2_147_483_647)
        assert not is_prime(2_147_483_647 * 3)

    def test_refuses_at_the_deterministic_bound(self):
        # the least strong pseudoprime to the 12 bases up to 37 is
        # 399165290221 * 798330580441; the test must not call it prime
        bound = 318665857834031151167461
        assert bound == 399165290221 * 798330580441
        with pytest.raises(TooLargeToFactor, match="318665857834031151167461"):
            is_prime(bound)
        with pytest.raises(TooLargeToFactor, match="318665857834031151167461"):
            is_prime(2**89 - 1)
        assert not is_prime(bound - 1)
        assert is_prime(2**61 - 1)


class TestSplitPrime:
    def test_ramified(self):
        assert split_prime(make_field(5), 5).kind == RAMIFIED

    def test_split_with_root(self):
        splitting = split_prime(make_field(5), 11)
        assert splitting.kind == SPLIT
        assert splitting.root == 4
        assert (4 * 4) % 11 == 5 % 11

    def test_inert(self):
        assert split_prime(make_field(5), 13).kind == INERT

    def test_primes_up_to_eleven(self):
        field = make_field(5)
        kinds = {p: split_prime(field, p).kind for p in (2, 3, 5, 7, 11)}
        assert kinds == {2: INERT, 3: INERT, 5: RAMIFIED, 7: INERT, 11: SPLIT}

    def test_two(self):
        assert split_prime(make_field(5), 2).kind == INERT  # 5 mod 8
        assert split_prime(make_field(17), 2).kind == SPLIT  # 1 mod 8
        assert split_prime(make_field(3), 2).kind == RAMIFIED  # even discriminant
        assert split_prime(make_field(21), 2).kind == INERT  # 21 mod 8 = 5

    def test_refuses_at_the_deterministic_bound(self):
        with pytest.raises(TooLargeToFactor, match="318665857834031151167461"):
            split_prime(make_field(5), 318665857834031151167461)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            split_prime(make_field(5), 9)
        with pytest.raises(NotPrime):
            split_prime(make_field(5), 1)

    def test_oracle_below_100(self):
        field = make_field(5)
        for p in primes_below(100):
            if p == 2:
                continue
            assert split_prime(field, p).kind == oracle_kind(field.discriminant, p), p

    def test_oracle_other_fields(self):
        for radicand in (21, 77, 165, 221, 285, 1221):
            field = make_field(radicand)
            for p in primes_below(60):
                if p == 2:
                    continue
                assert split_prime(field, p).kind == oracle_kind(field.discriminant, p)

    def test_split_roots_verify(self):
        for radicand in (5, 21, 77, 221):
            field = make_field(radicand)
            for p in primes_below(500):
                if p == 2:
                    continue
                splitting = split_prime(field, p)
                if splitting.kind == SPLIT:
                    assert splitting.root is not None
                    assert (splitting.root**2 - field.discriminant) % p == 0
                    assert 0 < splitting.root <= p // 2


class TestIdealsOfNorm:
    def test_unit(self):
        assert ideals_of_norm(make_field(5), 1) == 1

    def test_split_prime_norm(self):
        assert ideals_of_norm(make_field(5), 11) == 2

    def test_inert_prime_norm(self):
        assert ideals_of_norm(make_field(5), 13) == 0
        assert ideals_of_norm(make_field(5), 13 * 13) == 1

    def test_ramified_powers(self):
        assert ideals_of_norm(make_field(5), 5) == 1
        assert ideals_of_norm(make_field(5), 25) == 1

    def test_split_powers(self):
        assert ideals_of_norm(make_field(5), 11 * 11) == 3

    def test_inert_even_power(self):
        assert ideals_of_norm(make_field(5), 4) == 1
        assert ideals_of_norm(make_field(5), 8) == 0

    def test_multiplicative_on_coprime(self):
        rng = random.Random(71)
        field = make_field(5)
        values = [2, 3, 4, 5, 9, 11, 13, 25, 49, 121]
        for _ in range(60):
            a, b = rng.sample(values, 2)
            if _gcd(a, b) != 1:
                continue
            assert ideals_of_norm(field, a * b) == ideals_of_norm(field, a) * ideals_of_norm(field, b)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ideals_of_norm(make_field(5), 0)
        with pytest.raises(ValueError):
            ideals_of_norm(make_field(5), 10**6 + 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestIdealChain:
    def test_knot_case_prime(self):
        field = make_field(5)
        chain = ideal_chain(field, 1)
        assert len(chain) == 1
        assert chain[0].is_prime_ideal()
        assert chain[0].factors[0][0] == PrimeIdealSymbol(5, RAMIFIED, 0)

    def test_link_case_strict_inclusions(self):
        field = make_field(5)
        chain = ideal_chain(field, 3)
        assert len(chain) == 3
        assert not chain[0].is_prime_ideal()
        for deeper, shallower in zip(chain, chain[1:]):
            assert contains(shallower, deeper)
            assert not contains(deeper, shallower)

    def test_sqrt21_chain(self):
        field = make_field(21)
        chain = ideal_chain(field, 2)
        symbol = chain[0].factors[0][0]
        assert symbol.prime == 3
        assert symbol.kind == RAMIFIED
        assert chain[0].factors[0][1] == 2
        assert chain[1].factors[0][1] == 1

    def test_smallest_non_inert(self):
        assert smallest_non_inert_prime(make_field(5)).prime == 5
        assert smallest_non_inert_prime(make_field(21)).prime == 3
        assert smallest_non_inert_prime(make_field(17)).prime == 2

    def test_dichotomy_across_fields(self):
        for radicand in (5, 21, 77):
            field = make_field(radicand)
            assert ideal_chain(field, 1)[0].is_prime_ideal()
            for k in (2, 3, 4):
                assert not ideal_chain(field, k)[0].is_prime_ideal()

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_chain(make_field(5), 0)


class TestFactoredIdeal:
    def test_norms(self):
        field = make_field(5)
        split_symbol = PrimeIdealSymbol(11, SPLIT, 0)
        inert_symbol = PrimeIdealSymbol(13, INERT, 0)
        ideal = FactoredIdeal(field, ((split_symbol, 2), (inert_symbol, 1)))
        assert ideal.norm() == 11**2 * 13**2

    def test_contains_examples(self):
        field = make_field(5)
        p = PrimeIdealSymbol(5, RAMIFIED, 0)
        one = FactoredIdeal(field, ((p, 1),))
        two = FactoredIdeal(field, ((p, 2),))
        assert contains(one, two)
        assert not contains(two, one)

    def test_incomparable_supports(self):
        field = make_field(21)
        p3 = FactoredIdeal(field, ((PrimeIdealSymbol(3, RAMIFIED, 0), 1),))
        p7 = FactoredIdeal(field, ((PrimeIdealSymbol(7, RAMIFIED, 0), 1),))
        assert not contains(p3, p7)
        assert not contains(p7, p3)

    def test_field_mismatch(self):
        a = FactoredIdeal(make_field(5), ((PrimeIdealSymbol(5, RAMIFIED, 0), 1),))
        b = FactoredIdeal(make_field(21), ((PrimeIdealSymbol(3, RAMIFIED, 0), 1),))
        with pytest.raises(FieldMismatch):
            contains(a, b)

    def test_unit_ideal_contains_everything(self):
        field = make_field(5)
        unit = FactoredIdeal(field, ())
        assert unit.is_unit_ideal()
        assert unit.norm() == 1
        other = FactoredIdeal(field, ((PrimeIdealSymbol(5, RAMIFIED, 0), 3),))
        assert contains(unit, other)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            FactoredIdeal(make_field(5), ((PrimeIdealSymbol(5, RAMIFIED, 0), 0),))

    def test_str(self):
        field = make_field(5)
        sym = PrimeIdealSymbol(5, RAMIFIED, 0)
        assert str(FactoredIdeal(field, ((sym, 2),))) == "P5^2"


def test_input_checks():
    field = make_field(5)
    with pytest.raises(ValueError, match="conjugate tag"):
        FactoredIdeal(field, ((PrimeIdealSymbol(11, SPLIT, 2), 1),))
    assert str(FactoredIdeal(field, ())) == "(1)"
