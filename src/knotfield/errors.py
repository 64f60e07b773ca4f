"""Exception hierarchy shared across the package.

Everything that represents a *domain* failure (bad mathematical input,
budget blown, degenerate object) derives from :class:`DomainError` so the
command line layer can map it uniformly to exit code 2.  Plain usage bugs
(wrong types, out-of-contract arguments) stay ordinary ``ValueError``s;
``integer_rows`` raises the one shared by the integer matrix types, and
``integer`` the one for every integer typed on the command line.
"""

import re

# ASCII digits only: int() alone would also read "1_0" as 10 and "٢" as 2
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def integer(text: str) -> int:
    """``text`` as an integer, [+-]?[0-9]+ with blanks around it allowed.
    Anything else, or more digits than int() converts, raises ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def integer_rows(rows, name: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of ints.  An integral value such as 2.0 or a numpy
    integer is converted; any other entry, including one that ``int()``
    refuses (inf, nan, None), raises ValueError naming the matrix."""
    try:
        converted = tuple(tuple(map(int, row)) for row in rows)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or converted != tuple(map(tuple, rows)):
        raise ValueError(f"{name} entries must be integers")
    return converted


class DomainError(Exception):
    """Base class for all domain-level failures."""


# braid words ---------------------------------------------------------------

class MalformedToken(DomainError):
    """A braid-word token is not a signed integer or ``sK``/``sK^-1`` alias."""


class GeneratorOutOfRange(DomainError):
    """A letter references a generator outside 1..strands-1."""


class StrandMismatch(DomainError):
    """Two braid words on different strand counts were combined."""


# free groups / Artin -------------------------------------------------------

class IndexOutOfRange(DomainError):
    """A generator index does not exist at the given rank."""


class BudgetExceeded(DomainError):
    """A request ran past a size or work limit.  The message names the
    request and the limit."""


# cluster algebra -----------------------------------------------------------

class DirectionOutOfRange(DomainError):
    """Mutation direction outside 1..rank."""


class NonLaurentResult(DomainError):
    """An exchange step did not divide exactly.

    Reachable only through an arithmetic bug: cluster variables expressed
    in the initial cluster are guaranteed to be Laurent.
    """


class TooSmall(DomainError):
    """Polygon with fewer than 4 vertices has no seed."""


class UnsupportedSurface(DomainError):
    """No explicit exchange matrix is available for this surface."""


# AF-algebra data -----------------------------------------------------------

class DeadVertex(DomainError):
    """Incidence matrix has an all-zero row or column."""


class NotPrimitive(DomainError):
    """No power of the incidence matrix is strictly positive."""


class FloatOverflow(DomainError):
    """The Perron root rounds to a value beyond the largest finite float."""


# number fields -------------------------------------------------------------

class PerfectSquare(DomainError):
    """Radicand is a perfect square; the field degenerates to the rationals."""


class TooLargeToFactor(DomainError):
    """A square-free part that trial division cannot certify, or a primality
    query at or above the bound where the deterministic Miller-Rabin test ends."""


class NotPrime(DomainError):
    """Splitting was requested at a composite number."""


# braid-to-field map --------------------------------------------------------

class WrongStrandCount(DomainError):
    """The monodromy homomorphism is defined on three-strand braids only."""


class NonHyperbolic(DomainError):
    """Monodromy trace has absolute value <= 2; no real quadratic field."""

    def __init__(self, trace: int):
        super().__init__(f"monodromy trace {trace} is not hyperbolic (|trace| <= 2)")
        self.trace = trace
