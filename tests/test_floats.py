"""Version-independent float helpers, checked against plain Python loops."""

import math
import random

from vanetsim.floats import left_sum


def loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_left_sum_rounds_each_term_in_order():
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0          # 1e16 + 1.0 rounds back to 1e16
    assert math.fsum(values) == 1.0
    assert left_sum([]) == 0.0
    rng = random.Random(3)
    values = [rng.uniform(-1.0, 1.0) * 10 ** rng.randrange(-8, 8) for _ in range(500)]
    assert left_sum(values).hex() == loop_sum(values).hex()
