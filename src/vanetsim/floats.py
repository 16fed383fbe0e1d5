"""Float arithmetic whose bits do not depend on the Python version.

Run artifacts are compared byte for byte, so every float result must
come from the same sequence of roundings on every interpreter.

``left_sum`` adds left to right, one rounding per term. The builtin
``sum`` did exactly that up to Python 3.11; from 3.12 it compensates
float rounding and returns other bits.
"""

from __future__ import annotations


def left_sum(values) -> float:
    """Sum from left to right, as the builtin ``sum`` does before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total
