"""Float arithmetic whose bits do not depend on the Python version.

Run artifacts are compared byte for byte, so every float result must
come from the same sequence of roundings on every interpreter.

* ``left_sum`` adds left to right, one rounding per term. The builtin
  ``sum`` did exactly that up to Python 3.11; from 3.12 it compensates
  float rounding and returns other bits.
* ``add_repeated`` gives the bits of ``k`` sequential ``x += c`` without
  taking the ``k`` steps.
"""

from __future__ import annotations

from math import ulp

# multiples of one spacing below the next power of two: x/ulp(x) < 2**53
_GRID = 1 << 53
# fewer steps than this are cheaper taken one by one than in closed form
_FEW = 16


def left_sum(values) -> float:
    """Sum from left to right, as the builtin ``sum`` does before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def add_repeated(x: float, c: float, k: int) -> float:
    """The value of ``x`` after ``for _ in range(k): x += c``, bit for bit.

    For finite ``x >= 0`` and ``c >= 0``. Below the next power of two,
    the floats around ``x`` are the multiples of u = ulp(x), and ``x + c``
    rounds to ``x + R*u``, where R is c/u rounded to the nearest integer.
    So j steps that stay below that power of two (x/u + j*R < 2**53) are
    one multiplication, and the step after the last of them is the one
    that leaves the power-of-two range, taken singly. A tie (c/u ends in
    exactly one half) rounds to the even multiple of u: from an even x/u
    every step then adds the even one of floor(c/u) and floor(c/u) + 1,
    and from an odd x/u one single step is taken. So is a step whose c/u
    has no room below 2**53 at all (from ``x == 0``, for example). With
    R == 0, ``x`` no longer changes. Fewer than ``_FEW`` steps are simply
    taken.
    """
    if k < _FEW:
        for _ in range(k):
            x += c
        return x
    while k > 0:
        u = ulp(x)
        q = c / u
        if q < _GRID:
            m = int(x / u)
            f = int(q)
            if q - f != 0.5:
                r = f + (q - f > 0.5)
            elif m % 2 == 0:
                r = f + (f & 1)
            else:
                r = None        # a tie from an odd x/u: one single step
            if r == 0:
                return x
            if r:
                j = (_GRID - 1 - m) // r
                if j >= k:
                    return (m + k * r) * u
                x = (m + j * r) * u
                k -= j
        x += c
        k -= 1
    return x
