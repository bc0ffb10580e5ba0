"""Prime-field arithmetic ``GF(p)``.

Field elements are plain Python ints in ``[0, p)``; the :class:`Field`
object carries the modulus and provides the operations.  This representation
was chosen over an element-wrapper class deliberately: the protocol stack
pushes millions of field values through the simulator, and wrapper objects
roughly triple the cost of every arithmetic step without adding safety that
the test suite does not already provide.
"""

from __future__ import annotations

from collections.abc import Iterable
from random import Random

from repro.errors import FieldError
from repro.field.primes import is_prime


class Field:
    """The prime field ``GF(p)``.

    Parameters
    ----------
    prime:
        The field modulus; must be prime.

    Notes
    -----
    Instances are immutable and hashable; two fields compare equal iff their
    moduli are equal.
    """

    __slots__ = ("prime",)

    def __init__(self, prime: int):
        if not is_prime(prime):
            raise FieldError(f"field modulus must be prime, got {prime}")
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name: str, value: object) -> None:
        raise FieldError("Field instances are immutable")

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.prime == self.prime

    def __hash__(self) -> int:
        return hash(("Field", self.prime))

    def __repr__(self) -> str:
        return f"Field(prime={self.prime})"

    @property
    def size(self) -> int:
        """Number of elements in the field."""
        return self.prime

    # -- element validation ------------------------------------------------
    def element(self, value: int) -> int:
        """Reduce an arbitrary int into canonical ``[0, p)`` form."""
        return value % self.prime

    def is_element(self, value: object) -> bool:
        """True iff ``value`` is a canonical element of this field."""
        return isinstance(value, int) and 0 <= value < self.prime

    def check(self, value: int) -> int:
        """Validate that ``value`` is canonical; return it unchanged."""
        if not self.is_element(value):
            raise FieldError(f"{value!r} is not an element of GF({self.prime})")
        return value

    # -- arithmetic ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.prime

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.prime

    def neg(self, a: int) -> int:
        return (-a) % self.prime

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.prime

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises :class:`FieldError` on zero."""
        if a % self.prime == 0:
            raise FieldError("zero has no multiplicative inverse")
        # Fermat: a^(p-2) mod p.  pow() uses fast exponentiation in C.
        return pow(a, self.prime - 2, self.prime)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.prime

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.prime)
        return pow(a, e, self.prime)

    def sum(self, values: Iterable[int]) -> int:
        total = 0
        for v in values:
            total += v
        return total % self.prime

    # -- randomness ---------------------------------------------------------
    def random_elements(self, rng: Random, count: int) -> list[int]:
        """``count`` uniformly random field elements drawn from ``rng``."""
        prime = self.prime
        return [rng.randrange(prime) for _ in range(count)]
