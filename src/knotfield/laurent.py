"""Exact multivariate integer polynomials and Laurent fractions.

Polynomials are sparse dicts mapping exponent tuples to nonzero integer
coefficients.  A Laurent fraction is a polynomial numerator over a monomial
denominator, kept in reduced form: no variable with positive denominator
exponent divides the numerator.

Polynomials and Laurent fractions are immutable values: ``p ** 1`` returns
``p`` itself (a product, even ``p * 1``, is new), so ``.terms`` must never
be mutated.  A polynomial's identity is its dict of terms: equality is
dict equality, and the hash, of the terms as a frozenset, is computed
once and kept.

Products are Kronecker substitutions: each factor becomes one big
integer (one fixed-width slot per point of a mixed-radix exponent box),
and a product of any number of factors is one pass through a shared box:
their images are multiplied and the result is unpacked once.  A factor
object that repeats is packed once and its image raised to a power, so a
square is one squaring.  A factor of at most ``_SHIFT_TERMS`` terms is
not packed; each of its terms adds a shifted copy of the other images'
product, so the Markov exchange K * x_i * x_j of the torus is one
integer multiplication.  The box spans the lattice of the factors'
supports: for each variable the offset is the sum of the least exponents
and the step is the gcd of every exponent difference in any factor, so a
slot index digit k stands for the exponent offset + step * k.  The last
packed variable varies fastest in the slot index, so the slots come in
the order of ``itertools.product`` over the axes.  Cluster exchange
relations square variables, so deep torus numerators have exponents of
one parity and pack into about a quarter of the box from 0 to the
greatest exponent.  The images are signed and the product is unpacked in
balanced slots, where every slot is read relative to half its range.
The slot width keeps a bound on every product coefficient below that
half, so no borrow crosses a slot: the l1 norms of all factors but one
times the l-infinity norm of that one, the least such bound.  Images
are little-endian.  On a little-endian host widths are rounded up to 1,
2, 4 or 8 bytes, so that one ``memoryview.cast`` writes and reads all
slots; wider slots, and every slot on another host, are read one by
one.  The total degree is one more lattice column; when its product
extent is 1 the product is homogeneous, so the variable with the widest
extent is dropped from the box and restored from the sum of the
factors' greatest degrees.  A product with no more term tuples than box
slots, or whose image would exceed ``_PACK_BYTE_LIMIT`` bytes, is not
packed: two factors multiply on dicts, and more are folded in one at a
time as products of two.  Every product of two with a monomial runs on
dicts, as its box has a slot for each term of the other factor.  Each
polynomial keeps its lattice once built, and a packed product gets its
lattice from its factors'.

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

import sys
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain, product, repeat
from math import gcd, prod
from operator import add, mul, sub
from typing import Mapping, Sequence

from .errors import NonLaurentResult

_PACK_BYTE_LIMIT = 1 << 26
# a factor of at most this many terms is applied as shifted copies (see
# _mul_packed); the Markov numerator x1^2 + x2^2 + x3^2 has three
_SHIFT_TERMS = 4
# memoryview.cast formats of the slot widths that are read in one cast;
# the cast reads native byte order, so only a little-endian host has any
_CAST_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder."""


class Polynomial:
    """Multivariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("nvars", "terms", "_hash", "_box")

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
        self._hash = None
        self._box = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """Wrap ``terms`` without validation.  Only for dicts that are clean by
        construction: nonzero coefficients and tuples of ``nvars``
        nonnegative exponents.  The polynomial takes ownership of the dict."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        poly._hash = None
        poly._box = None
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
        return tuple(_lattice(self)[0][:-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

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
        out = Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})
        out._box = self._box
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

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
    """Per variable, and last for the total degree, of a nonzero polynomial:
    the least value, a step that divides every difference of values (0 when
    they are all equal) and the greatest.  Built once per polynomial, as
    the gcd of the differences, and kept on it; a packed product keeps the
    one its factors give (see ``_mul_packed``)."""
    if poly._box is None:
        lo, step, hi = [], [], []
        for column in chain(zip(*poly.terms), [map(sum, poly.terms)]):
            values = set(column)
            least = min(values)
            lo.append(least)
            step.append(gcd(*map(sub, values, repeat(least))))
            hi.append(max(values))
        poly._box = lo, step, hi
    return poly._box


def _indices(poly: Polynomial, lo, axes) -> list[int]:
    """Per term, in the order of ``poly.terms``, the index of its exponent's
    lattice point in the box: the sum of (e_i - lo_i) // step * stride over
    the packed ``axes`` (i, step, stride).  Each axis reads its column
    through a table over the column's distinct exponents."""
    columns = list(zip(*poly.terms))
    parts = []
    for i, step, stride in axes:
        column, least = columns[i], lo[i]
        table = {e: (e - least) // step * stride for e in set(column)}
        parts.append(map(table.__getitem__, column))
    return list(map(sum, zip(*parts)))


def _pack(poly: Polynomial, lo, axes, slot_bytes) -> int:
    """Signed Kronecker image: the sum of coeff * 256**(slot_bytes * idx)
    over the terms (see ``_indices``).  Every slot of a byte buffer starts
    at half = 2**(8*slot_bytes - 1) and a term's slot holds half + coeff;
    the image is the buffer minus the image of all halves, read
    little-endian.  Slots of a width in ``_CAST_FORMATS`` (1, 2, 4 or 8
    bytes on a little-endian host) are written through one
    ``memoryview.cast``, others one by one."""
    idxs = _indices(poly, lo, axes)
    half = 1 << (8 * slot_bytes - 1)
    fmt = _CAST_FORMATS.get(slot_bytes)
    zero = half.to_bytes(slot_bytes, "little")
    size = max(idxs) + 1
    buf = bytearray(zero * size)
    if fmt:
        with memoryview(buf) as raw, raw.cast(fmt) as view:
            for idx, coeff in zip(idxs, poly.terms.values()):
                view[idx] = half + coeff
    else:
        for idx, coeff in zip(idxs, poly.terms.values()):
            off = idx * slot_bytes
            buf[off : off + slot_bytes] = (half + coeff).to_bytes(slot_bytes, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(zero * size, "little")


def _unpack(value: int, slot_bytes, axes, drop, degree) -> dict:
    """Inverse of _pack over the whole box.  Digit k of the slot index on a
    packed axis (offset, step, extent) is the exponent offset + step * k,
    and the last axis varies fastest, so the slots run row by row along
    it; ``degree`` restores the dropped exponent (or None), which falls by
    the last axis's step along a row.  Adds half = 2**(8*slot_bytes - 1)
    to every slot and reads each slot minus half; no borrow crosses a slot
    because every |coefficient| < half.  The value is written
    little-endian; slots of a width in ``_CAST_FORMATS`` (1, 2, 4 or 8
    bytes on a little-endian host) are read with one ``memoryview.cast``,
    others one by one."""
    half = 1 << (8 * slot_bytes - 1)
    fmt = _CAST_FORMATS.get(slot_bytes)
    nslots = prod(extent for _, _, extent in axes)
    value += int.from_bytes(half.to_bytes(slot_bytes, "little") * nslots, "little")
    data = value.to_bytes(nslots * slot_bytes, "little")
    if fmt:
        with memoryview(data) as raw, raw.cast(fmt) as view:
            slots = view.tolist()
    else:
        slots = [int.from_bytes(data[s : s + slot_bytes], "little") for s in range(0, len(data), slot_bytes)]
    *outer, (first, step, extent) = axes
    last = range(first, first + step * extent, step)
    rows = []
    for prefix in product(*[range(o, o + s * x, s) for o, s, x in outer]):
        columns = [*map(repeat, prefix), last]
        if drop is not None:
            top = degree - sum(prefix) - first
            columns.insert(drop, range(top, top - step * extent, -step))
        rows.append(zip(*columns))
    return {p: v - half for p, v in zip(chain.from_iterable(rows), slots) if v != half}


def _norms(poly: Polynomial) -> tuple[int, int]:
    """The l1 and l-infinity norms of the coefficients."""
    sizes = list(map(abs, poly.terms.values()))
    return sum(sizes), max(sizes)


def _mul_packed(*factors: Polynomial) -> Polynomial:
    """Product of two or more nonzero factors in the lattice their supports
    span (see the module docstring).  The packed images are multiplied in
    order of term count, fewest first; then each term of a factor of at
    most ``_SHIFT_TERMS`` terms (but the one with the most terms) adds a
    shifted copy of that product, which costs time linear in its size."""
    distinct = sorted({id(f): f for f in factors}.values(), key=lambda f: len(f.terms))
    powers = [sum(f is g for g in factors) for f in distinct]
    lattices = [_lattice(f) for f in distinct]
    lo = [sum(map(mul, powers, column)) for column in zip(*(l for l, _, _ in lattices))]
    hi = [sum(map(mul, powers, column)) for column in zip(*(h for _, _, h in lattices))]
    gcds = [gcd(*column) for column in zip(*(s for _, s, _ in lattices))]
    steps = [s or 1 for s in gcds]
    *extents, degree_extent = [(h - l) // s + 1 for h, l, s in zip(hi, lo, steps)]
    nvars = len(extents)
    drop = max(range(nvars), key=extents.__getitem__, default=None) if degree_extent == 1 else None
    # the last packed axis varies fastest
    axes = []
    slots = 1
    for i in reversed(range(nvars)):
        if i != drop:
            axes.append((i, steps[i], slots))
            slots *= extents[i]
    axes.reverse()
    norms = [_norms(f) for f in distinct]
    total = prod(l1**k for (l1, _), k in zip(norms, powers))
    bound = min(total // l1 * top for l1, top in norms)
    width = (bound.bit_length() + 8) // 8
    slot_bytes = next((w for w in _CAST_FORMATS if w >= width), width)
    # no more term tuples than slots: products on dicts are cheaper
    if prod(len(f.terms) ** k for f, k in zip(distinct, powers)) <= slots or slots * slot_bytes > _PACK_BYTE_LIMIT:
        return reduce(_mul_packed, factors) if len(factors) > 2 else _mul_dict(*factors)
    groups = [(f, flo, k) for f, (flo, _, _), k in zip(distinct, lattices, powers)]
    few = min(sum(len(f.terms) <= _SHIFT_TERMS for f in distinct), len(distinct) - 1)
    packed = reduce(mul, [_pack(f, flo, axes, slot_bytes) ** k for f, flo, k in groups[few:]])
    for f, flo, k in groups[:few]:
        shifts = [(8 * slot_bytes * idx, c) for idx, c in zip(_indices(f, flo, axes), f.terms.values())]
        for _ in range(k):
            packed = sum(c * (packed << bits) for bits, c in shifts)
    degree = hi[-1] if drop is not None else None
    spans = [(lo[i], step, extents[i]) for i, step, _ in axes]
    out = Polynomial._trusted(nvars, _unpack(packed, slot_bytes, spans, drop, degree))
    # least and greatest values add up over the factors (the extreme terms
    # cannot cancel), and the gcd of the factors' steps divides every difference
    out._box = lo, gcds, hi
    return out


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


def _shift(poly: Polynomial, shift: Sequence[int]) -> Polynomial:
    """``poly`` times the monomial x**shift, unchecked: only for shifts that
    keep every exponent >= 0, as the reductions and alignments of Laurent
    fractions do."""
    if not any(shift):
        return poly
    return Polynomial._trusted(poly.nvars, {tuple(map(add, exps, shift)): c for exps, c in poly.terms.items()})


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
        self.numerator = _shift(numerator, tuple(-c for c in cancel))
        self.denominator = tuple(d - c for d, c in zip(den, cancel))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "LaurentFraction":
        return cls(poly, (0,) * poly.nvars)

    @classmethod
    def unit_variable(cls, index: int, nvars: int) -> "LaurentFraction":
        return cls.from_polynomial(Polynomial.variable(index, nvars))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    @staticmethod
    def product(*factors: "LaurentFraction") -> "LaurentFraction":
        """The product of one or more fractions.  The numerators are
        multiplied at once, in one packed image where the size rule allows
        (see ``_mul_packed``), and a factor object that repeats packs once."""
        first, *rest = factors
        if not rest:
            return first
        numerators = [f.numerator for f in factors]
        for num in numerators[1:]:
            first.numerator._check(num)
        den = tuple(map(sum, zip(*(f.denominator for f in factors))))
        if any(num.is_zero() for num in numerators):
            return LaurentFraction(Polynomial.zero(first.numerator.nvars), den)
        return LaurentFraction(_mul_packed(*numerators), den)

    def __mul__(self, other: "LaurentFraction") -> "LaurentFraction":
        return LaurentFraction.product(self, other)

    def __add__(self, other: "LaurentFraction") -> "LaurentFraction":
        den = tuple(max(a, b) for a, b in zip(self.denominator, other.denominator))
        left = _shift(self.numerator, tuple(d - a for d, a in zip(den, self.denominator)))
        right = _shift(other.numerator, tuple(d - b for d, b in zip(den, other.denominator)))
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
        stripped = _shift(other.numerator, tuple(-c for c in content))
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
        return LaurentFraction(_shift(quotient, lift), den)

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
