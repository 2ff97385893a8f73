"""Exact arithmetic over numbers of the form a + b*sqrt(2) with rational a, b.

The certificate constants used throughout the package live in this ring, so
identities such as s * beta_Q + mu = 1 can be checked exactly instead of to
floating-point roundoff.

One operand rule serves every binary operator and ``==``: an ``int`` or
``Fraction`` operand becomes ``Root2(operand)``, and any operand but these
and ``Root2``, float included, gives ``NotImplemented``, so arithmetic with
it raises TypeError and ``==`` is False.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Union

Rational = Union[int, Fraction]

_SQRT2_FLOAT = math.sqrt(2.0)


def _operand(method: Callable) -> Callable:
    """Wrap a binary method in the module's one operand rule."""
    @functools.wraps(method)
    def wrapped(self: "Root2", other: object) -> object:
        if isinstance(other, (int, Fraction)):
            other = Root2(other)
        elif not isinstance(other, Root2):
            return NotImplemented
        return method(self, other)
    return wrapped


class Root2:
    """Immutable element a + b*sqrt(2) of the quadratic ring Q[sqrt(2)]."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Root2 is immutable")

    @_operand
    def __add__(self, other: "Root2") -> "Root2":
        return Root2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    @_operand
    def __sub__(self, other: "Root2") -> "Root2":
        return Root2(self.a - other.a, self.b - other.b)

    @_operand
    def __rsub__(self, other: "Root2") -> "Root2":
        return other - self

    @_operand
    def __mul__(self, other: "Root2") -> "Root2":
        return Root2(self.a * other.a + 2 * self.b * other.b,
                     self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, other: "Root2") -> "Root2":
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        conjugate = Root2(other.a, -other.b)
        product = self * conjugate
        return Root2(product.a / norm, product.b / norm)

    @_operand
    def __rtruediv__(self, other: "Root2") -> "Root2":
        return other / self

    def __neg__(self) -> "Root2":
        return Root2(-self.a, -self.b)

    @_operand
    def __eq__(self, other: "Root2") -> bool:
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT2_FLOAT

    def __repr__(self) -> str:
        return f"Root2({self.a!r}, {self.b!r})"


SQRT2 = Root2(0, 1)
