"""Exact multivariate integer polynomials and Laurent fractions.

Polynomials are sparse dicts mapping exponent tuples to nonzero integer
coefficients.  A Laurent fraction is a polynomial numerator over a monomial
denominator, kept in reduced form: no variable with positive denominator
exponent divides the numerator.

Polynomials and Laurent fractions are immutable values: ``p ** 1`` and a
zero-shift ``mul_monomial`` return ``p`` itself (a product, even ``p * 1``,
is new), so ``.terms`` must never be mutated.

Products are Kronecker substitutions: each operand becomes one big integer
(one fixed-width little-endian slot per point of a mixed-radix exponent
box) and the product is one integer multiplication, or one squaring when
both operands are the same object.  The box spans the lattice of the
operands' supports: for each variable the offset is the sum of the two
least exponents and the step is the gcd of every exponent difference in
either operand, so a slot index digit k stands for the exponent
offset + step * k.  Cluster exchange relations square variables, so deep
torus numerators have exponents of one parity and pack into about a
quarter of the box from 0 to the greatest exponent.  The images are
signed: each is the image of the positive coefficients minus that of the
absolute values of the negative ones, and the product is unpacked in
balanced slots, where every slot is read relative to half its range.  The
slot width keeps a bound on every product coefficient below that half, so
no borrow crosses a slot.  The total degree is one more lattice column;
when its product extent is 1 the product is homogeneous, so the variable
with the widest extent is dropped from the box and restored from the sum
of the operands' greatest degrees.  A product with no more term pairs
than box slots, or whose image would exceed ``_PACK_BYTE_LIMIT`` bytes,
runs on dicts instead: every product by a monomial does, as its box has
a slot for each term of the other operand.

Exact division, by any nonzero divisor, is classical sparse division in
grlex order over signed coefficients: a dict of pending remainder terms,
ordered by a heap, from which each quotient term subtracts its multiple of
the divisor.  The remainder may hold up to #f + #q * (#g - 1) terms at once
where a heap merge would hold #q; on cluster mutation traffic that costs no
more peak memory and runs faster.  ``InexactDivision`` certifies that the
divisor does not divide: it is raised at the first remainder term whose
coefficient the divisor's leading coefficient does not divide, or whose
quotient exponent leaves the box ``f.max_degrees() - g.max_degrees()`` that
holds every exact quotient.  A returned quotient q satisfies q * g == f
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, product, repeat
from math import gcd, prod
from operator import mul, sub
from typing import Mapping, Sequence

from .errors import NonLaurentResult

_PACK_BYTE_LIMIT = 1 << 26


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder."""


class Polynomial:
    """Multivariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("nvars", "terms", "_key")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
                clean[tuple(exps)] = coeff
        self.terms = clean
        self._key = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """Wrap ``terms`` without validation.  Only for dicts that are clean by
        construction: nonzero coefficients and tuples of ``nvars``
        nonnegative exponents.  The polynomial takes ownership of the dict."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        poly._key = None
        return poly

    # construction ----------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The variable x_index, 1-based."""
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    # inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_degrees(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nvars
        return tuple(map(max, zip(*self.terms)))

    def content_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (the monomial content)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(map(min, zip(*self.terms)))

    def has_positive_coefficients(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def _sum_abs(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    def _max_abs(self) -> int:
        return max((abs(c) for c in self.terms.values()), default=0)

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.key()))

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"

    # ring operations ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def mul_monomial(self, exps: Sequence[int]) -> "Polynomial":
        shift = tuple(exps)
        if not any(shift):
            return self
        return Polynomial(
            self.nvars,
            {tuple(e + s for e, s in zip(t, shift)): c for t, c in self.terms.items()},
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.nvars)
        return _mul_packed(self, other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n < 2:
            return self if n else Polynomial.constant(self.nvars, 1)
        half = self ** (n // 2)
        square = half * half
        return square * self if n & 1 else square

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self / divisor, raising InexactDivision if not exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        return _div_sparse(self, divisor)

    def evaluate(self, values: Sequence) -> object:
        """Exact evaluation; use Fractions for rational points."""
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        text = ""
        for exps, coeff in ordered:
            factors = _monomial_factors(exps)
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            text += ("-" if coeff < 0 else "+") + "*".join(factors)
        return text.removeprefix("+")

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")


def _monomial_factors(exps: Sequence[int]) -> list[str]:
    """The factors x1, x2^3, ... of a monomial with nonnegative exponents."""
    return [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]


# packing internals -----------------------------------------------------------


def _lattice(poly: Polynomial) -> tuple[list[int], list[int], list[int]]:
    """Per variable, and last for the total degree: the least value, the gcd
    of the values' differences (0 when they are all equal) and the greatest.
    Each column is built only when it is reached."""
    lo, step, hi = [], [], []
    for column in chain(zip(*poly.terms), map(tuple, [map(sum, poly.terms)])):
        least = min(column)
        lo.append(least)
        step.append(gcd(*map(sub, column, repeat(least))))
        hi.append(max(column))
    return lo, step, hi


def _pack(poly: Polynomial, lo, axes, slot_bytes) -> int:
    """Signed Kronecker image: the sum of coeff * 256**(slot_bytes * idx)
    over the terms, idx being the index of the exponent's lattice point in
    the box, the sum of (e_i - lo_i) // step * stride over the packed
    ``axes`` (i, step, stride).  Positive coefficients and the absolute
    values of negative ones fill two byte buffers, and the image is the
    difference of the two."""
    size = 0
    chunks: list[tuple[int, int]] = []
    for exps, coeff in poly.terms.items():
        idx = 0
        for i, step, stride in axes:
            idx += (exps[i] - lo[i]) // step * stride
        chunks.append((idx, coeff))
        if idx >= size:
            size = idx + 1
    pos = bytearray(size * slot_bytes)
    neg = bytearray(size * slot_bytes)
    for idx, coeff in chunks:
        off = idx * slot_bytes
        buf = pos if coeff > 0 else neg
        buf[off : off + slot_bytes] = abs(coeff).to_bytes(slot_bytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, slot_bytes, axes, drop, degree) -> dict:
    """Inverse of _pack over the whole box.  Digit k of the slot index on a
    packed axis (offset, step, extent) is the exponent offset + step * k;
    ``degree`` restores the dropped exponent (or None).  Adds half =
    2**(8*slot_bytes - 1) to every slot and reads each slot minus half; no
    borrow crosses a slot because every |coefficient| < half."""
    half = 1 << (8 * slot_bytes - 1)
    zero = half.to_bytes(slot_bytes, "little")
    nslots = prod(extent for _, _, extent in axes)
    value += int.from_bytes(zero * nslots, "little")
    data = value.to_bytes(nslots * slot_bytes, "little")
    # the first axis varies fastest in the slot index, the last in product()
    points = product(*[range(o, o + s * x, s) for o, s, x in reversed(axes)])
    starts = range(0, nslots * slot_bytes, slot_bytes)
    out: dict[tuple[int, ...], int] = {}
    for point, start in zip(points, starts):
        chunk = data[start : start + slot_bytes]
        if chunk == zero:
            continue
        exps = point[::-1]
        if drop is not None:
            exps = exps[:drop] + (degree - sum(exps),) + exps[drop:]
        out[exps] = int.from_bytes(chunk, "little") - half
    return out


def _mul_packed(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product in the lattice both supports span: per variable, offset the
    sum of the least exponents and step the gcd of every exponent
    difference in either operand.  A square (``b is a``) packs once."""
    alo, astep, ahi = _lattice(a)
    blo, bstep, bhi = (alo, astep, ahi) if b is a else _lattice(b)
    steps = [gcd(s, t) or 1 for s, t in zip(astep, bstep)]
    *extents, degree_extent = [(x - l + y - m) // s + 1 for x, l, y, m, s in zip(ahi, alo, bhi, blo, steps)]
    drop = max(range(a.nvars), key=extents.__getitem__, default=None) if degree_extent == 1 else None
    axes = []
    slots = 1
    for i, (step, extent) in enumerate(zip(steps, extents)):
        if i != drop:
            axes.append((i, step, slots))
            slots *= extent
    bound = min(a._sum_abs() * b._max_abs(), a._max_abs() * b._sum_abs())
    slot_bytes = (bound.bit_length() + 8) // 8
    # no more term pairs than slots: the dict product is cheaper
    if len(a.terms) * len(b.terms) <= slots or slots * slot_bytes > _PACK_BYTE_LIMIT:
        return _mul_dict(a, b)
    image = _pack(a, alo, axes, slot_bytes)
    packed = image * image if b is a else image * _pack(b, blo, axes, slot_bytes)
    degree = ahi[-1] + bhi[-1] if drop is not None else None
    spans = [(alo[i] + blo[i], step, extents[i]) for i, step, _ in axes]
    return Polynomial._trusted(a.nvars, _unpack(packed, slot_bytes, spans, drop, degree))


def _mul_dict(a: Polynomial, b: Polynomial) -> Polynomial:
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            new = get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    return Polynomial._trusted(a.nvars, out)


def _div_sparse(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f / g for any nonzero g: classical sparse division in
    grlex order.

    A monomial is one int whose base ``max(f.max_degrees()) + 1`` digits are
    its total degree followed by its exponents, so int order is grlex order
    and monomial products are int sums.  ``rest`` maps each pending code to
    its coefficient and starts as f; a heap holds each of its codes once,
    pushed when the code first enters ``rest``.  Every code a quotient term
    adds lies below the code it came from, so pops strictly decrease and a
    code that cancels to 0 is skipped when popped.  ``rest`` may hold up to
    #f + #q * (#g - 1) codes.
    """
    n = f.nvars
    fmax = f.max_degrees()
    # every exact quotient lies in this box (degrees in one variable add); it is empty if a side is < 0
    box = [a - b for a, b in zip(fmax, g.max_degrees())]
    base = max(fmax) + 1
    weights = [base**n + base ** (n - 1 - i) for i in range(n)]
    gterms = sorted(((sum(map(mul, e, weights)), c, e) for e, c in g.terms.items()), reverse=True)
    lead_code, lead_coeff, lead = gterms[0]
    tail = [(code - lead_code, c) for code, c, _ in gterms[1:]]
    rest = {sum(map(mul, e, weights)): c for e, c in f.terms.items()}
    heap = [-code for code in rest]
    heapify(heap)
    quotient: dict[tuple[int, ...], int] = {}
    while heap:
        code = -heappop(heap)
        coeff = rest.pop(code)
        if not coeff:
            continue
        c, r = divmod(coeff, lead_coeff)
        if r:
            raise InexactDivision(f"coefficient {coeff} not divisible by {lead_coeff}")
        exps = [0] * n
        digits = code
        for v in range(n - 1, -1, -1):
            digits, e = divmod(digits, base)
            e -= lead[v]
            if not 0 <= e <= box[v]:
                raise InexactDivision("division leaves a nonzero remainder")
            exps[v] = e
        quotient[tuple(exps)] = c
        for shift, gc in tail:
            key = code + shift
            old = rest.get(key)
            if old is None:
                rest[key] = -c * gc
                heappush(heap, -key)
            else:
                rest[key] = old - c * gc
    return Polynomial._trusted(n, quotient)


# Laurent fractions -----------------------------------------------------------


class LaurentFraction:
    """A polynomial over a monomial denominator, always in reduced form."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Sequence[int]):
        den = list(denominator)
        if len(den) != numerator.nvars or any(e < 0 for e in den):
            raise ValueError(f"bad denominator exponents {denominator}")
        if numerator.is_zero():
            self.numerator = numerator
            self.denominator = (0,) * numerator.nvars
            return
        content = numerator.content_exponents()
        cancel = tuple(min(c, d) for c, d in zip(content, den))
        self.numerator = numerator.mul_monomial(tuple(-c for c in cancel))
        self.denominator = tuple(d - c for d, c in zip(den, cancel))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "LaurentFraction":
        return cls(poly, (0,) * poly.nvars)

    @classmethod
    def unit_variable(cls, index: int, nvars: int) -> "LaurentFraction":
        return cls.from_polynomial(Polynomial.variable(index, nvars))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __mul__(self, other: "LaurentFraction") -> "LaurentFraction":
        return LaurentFraction(
            self.numerator * other.numerator,
            tuple(a + b for a, b in zip(self.denominator, other.denominator)),
        )

    def __add__(self, other: "LaurentFraction") -> "LaurentFraction":
        den = tuple(max(a, b) for a, b in zip(self.denominator, other.denominator))
        left = self.numerator.mul_monomial(tuple(d - a for d, a in zip(den, self.denominator)))
        right = other.numerator.mul_monomial(tuple(d - b for d, b in zip(den, other.denominator)))
        return LaurentFraction(left + right, den)

    def __neg__(self) -> "LaurentFraction":
        return LaurentFraction(-self.numerator, self.denominator)

    def __sub__(self, other: "LaurentFraction") -> "LaurentFraction":
        return self + (-other)

    def __pow__(self, n: int) -> "LaurentFraction":
        if n < 0:
            raise ValueError("negative powers are not defined for fractions in general")
        return LaurentFraction(self.numerator ** n, tuple(n * d for d in self.denominator))

    def divide_exact(self, other: "LaurentFraction") -> "LaurentFraction":
        """Quotient self / other, defined when the result is again a Laurent
        fraction with monomial denominator; otherwise NonLaurentResult."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        content = other.numerator.content_exponents()
        stripped = other.numerator.mul_monomial(tuple(-c for c in content))
        try:
            quotient = self.numerator.exact_div(stripped)
        except InexactDivision as exc:
            raise NonLaurentResult(
                f"exchange numerator is not divisible: {exc}"
            ) from exc
        net = [
            s + c - d
            for s, c, d in zip(self.denominator, content, other.denominator)
        ]
        lift = tuple(max(-e, 0) for e in net)
        den = tuple(max(e, 0) for e in net)
        return LaurentFraction(quotient.mul_monomial(lift), den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentFraction)
            and self.denominator == other.denominator
            and self.numerator == other.numerator
        )

    def __hash__(self) -> int:
        return hash((self.denominator, self.numerator))

    def evaluate(self, values: Sequence) -> Fraction:
        num = self.numerator.evaluate(values)
        den = 1
        for v, e in zip(values, self.denominator):
            den *= v**e
        return Fraction(num, den) if not isinstance(num, Fraction) else num / den

    def render(self) -> str:
        num = self.numerator.render()
        factors = _monomial_factors(self.denominator)
        if not factors:
            return num
        den = "*".join(factors)
        if len(self.numerator.terms) > 1:
            num = f"({num})"
        if len(factors) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"LaurentFraction({self.render()})"
