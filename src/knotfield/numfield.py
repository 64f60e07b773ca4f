"""Real quadratic fields: square-free reduction, prime splitting, ideals.

Ideals are kept in factored symbolic form: a product of prime-ideal symbols
(rational prime, splitting kind, conjugate tag) with positive exponents.
The norm is then immediate, and an ideal chain's nesting and primality are
read off its factors.  The raw radicand is carried alongside its square-free
part because upstream constructions naturally produce non-square-free
values.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import NotPrime, PerfectSquare, TooLargeToFactor

# Trial division strips every prime up to this bound, so a cofactor left below
# its cube has at most two prime factors and is square-free unless a square.
_TRIAL_BOUND = 2_100_000
# The least strong pseudoprime to the 12 prime bases up to 37 (Sorenson and
# Webster, 2015): the Miller-Rabin test in is_prime is exact below it.
_PRIME_TEST_BOUND = 318665857834031151167461

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


def _factor_small(n: int) -> dict[int, int]:
    """Factor n >= 1 into keys whose odd-exponent product is its square-free
    part.  The cofactor left by trial division is one key: the root of a
    square, which may be composite, or a cofactor below _TRIAL_BOUND**3 or
    proved prime; any other raises TooLargeToFactor naming n.  Keys are all
    prime when trial division finishes, as it does for n <= _TRIAL_BOUND**2."""
    factors: dict[int, int] = {}
    rest = n
    d = 2
    while d <= _TRIAL_BOUND and d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        root = math.isqrt(rest)
        if root * root == rest:
            factors[root] = 2
        elif rest < _TRIAL_BOUND**3 or (rest < _PRIME_TEST_BOUND and is_prime(rest)):
            factors[rest] = 1
        else:
            raise TooLargeToFactor(f"cannot certify the square-free part of {n}: trial division "
                                   f"to {_TRIAL_BOUND} leaves a composite or unproved cofactor")
    return factors


def square_free_part(n: int) -> int:
    part = 1
    for p, e in _factor_small(n).items():
        if e % 2:
            part *= p
    return part


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 12 prime bases up to 37.  Deterministic only for
    n < _PRIME_TEST_BOUND (about 3.2e23); larger n raise TooLargeToFactor."""
    if n < 2:
        return False
    if n >= _PRIME_TEST_BOUND:
        raise TooLargeToFactor(f"{n} is at least {_PRIME_TEST_BOUND}, where this test may err")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class QuadraticField:
    """The real quadratic field generated by the square root of the radicand."""

    radicand_raw: int
    square_free: int
    discriminant: int
    integer_basis: str

    def field_str(self) -> str:
        return f"Q(sqrt({self.radicand_raw}))"


def make_field(radicand_raw: int) -> QuadraticField:
    """Build the field data for a positive non-square radicand."""
    if radicand_raw < 2:
        raise ValueError(f"radicand must be at least 2, got {radicand_raw}")
    d = square_free_part(radicand_raw)
    if d == 1:
        raise PerfectSquare(f"{radicand_raw} is a perfect square; the field would be the rationals")
    if d % 4 == 1:
        disc = d
        basis = f"Z[(1+sqrt({d}))/2]"
    else:
        disc = 4 * d
        basis = f"Z[sqrt({d})]"
    return QuadraticField(radicand_raw, d, disc, basis)


@record
class PrimeSplitting:
    """How a rational prime factors in the ring of integers."""

    prime: int
    kind: str
    root: int | None  # square root of the discriminant mod p for odd split p


def split_prime(field: QuadraticField, p: int) -> PrimeSplitting:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    disc = field.discriminant
    if p == 2:
        if disc % 2 == 0:
            return PrimeSplitting(2, RAMIFIED, None)
        if field.square_free % 8 == 1:
            return PrimeSplitting(2, SPLIT, None)
        return PrimeSplitting(2, INERT, None)
    if disc % p == 0:
        return PrimeSplitting(p, RAMIFIED, None)
    if pow(disc % p, (p - 1) // 2, p) == 1:
        root = _sqrt_mod(disc % p, p)
        return PrimeSplitting(p, SPLIT, root)
    return PrimeSplitting(p, INERT, None)


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a nonzero quadratic residue mod an odd
    prime, returned as the smaller of the two roots."""
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


@record
class PrimeIdealSymbol:
    """One prime ideal above a rational prime; the tag separates the two
    conjugates above a split prime."""

    prime: int
    kind: str
    conjugate_tag: int

    def norm(self) -> int:
        return self.prime * self.prime if self.kind == INERT else self.prime

    def sort_key(self):
        return (self.prime, self.conjugate_tag, self.kind)


@record
class FactoredIdeal:
    """A nonzero ideal as a sorted product of prime symbols with exponents."""

    field: QuadraticField
    factors: tuple[tuple[PrimeIdealSymbol, int], ...]

    def __post_init__(self):
        factors = tuple(sorted(self.factors, key=lambda fe: fe[0].sort_key()))
        object.__setattr__(self, "factors", factors)
        for symbol, exponent in factors:
            if exponent < 1:
                raise ValueError("ideal exponents must be at least 1")
            if symbol.kind == SPLIT and symbol.conjugate_tag not in (0, 1):
                raise ValueError("split symbols need conjugate tag 0 or 1")

    def norm(self) -> int:
        total = 1
        for symbol, exponent in self.factors:
            total *= symbol.norm() ** exponent
        return total

    def __str__(self) -> str:
        if not self.factors:
            return "(1)"
        parts = []
        for symbol, exponent in self.factors:
            tag = ("'" if symbol.conjugate_tag else "") if symbol.kind == SPLIT else ""
            base = f"P{symbol.prime}{tag}"
            parts.append(base if exponent == 1 else f"{base}^{exponent}")
        return "*".join(parts)


def ideals_of_norm(field: QuadraticField, norm: int) -> int:
    """Number of ideals of the given norm, multiplicatively from splitting.
    split_prime needs true primes: a norm <= 10**6 finishes trial division."""
    if norm < 1:
        raise ValueError("norms are positive")
    if norm > 10**6:
        raise ValueError("norm above the desk-scale bound 10**6")
    count = 1
    for p, e in _factor_small(norm).items():
        kind = split_prime(field, p).kind
        if kind == SPLIT:
            count *= e + 1
        elif kind == INERT:
            if e % 2:
                return 0
        # ramified contributes exactly one ideal per exponent
    return count


def smallest_non_inert_prime(field: QuadraticField) -> PrimeIdealSymbol:
    p = 2
    while True:
        if is_prime(p):
            kind = split_prime(field, p).kind
            if kind != INERT:
                return PrimeIdealSymbol(p, kind, 0)
        p += 1


def ideal_chain(field: QuadraticField, components: int) -> list[FactoredIdeal]:
    """Strictly nested ideals [P^k, ..., P^2, P] over the smallest non-inert
    prime; the last entry is prime (maximal), and the first is prime only
    when the chain has length one."""
    if components < 1:
        raise ValueError("need at least one component")
    symbol = smallest_non_inert_prime(field)
    return [
        FactoredIdeal(field, ((symbol, e),))
        for e in range(components, 0, -1)
    ]
