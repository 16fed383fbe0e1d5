"""Version-independent float helpers, checked against plain Python loops."""

import math
import random

from vanetsim.floats import add_repeated, left_sum


def loop_add(x, c, k):
    for _ in range(k):
        x += c
    return x


def assert_matches_loop(x, c, k):
    got, want = add_repeated(x, c, k), loop_add(x, c, k)
    assert got.hex() == want.hex(), (x.hex(), c.hex(), k)


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


def test_add_repeated_random_cases():
    rng = random.Random(11)
    for _ in range(3000):
        x = rng.random() * 10 ** rng.uniform(-6, 3)
        c = rng.random() * 10 ** rng.uniform(-9, 0)
        assert_matches_loop(x, c, rng.randrange(0, 400))


def test_add_repeated_exact_ties():
    # c/ulp(x) ends in exactly one half: ties round to the even multiple
    rng = random.Random(12)
    for _ in range(2000):
        x = rng.uniform(0.01, 100.0)
        c = (rng.randrange(0, 6) + 0.5) * math.ulp(x)
        assert_matches_loop(x, c, rng.randrange(0, 400))
    for m_parity in (0, 1):
        x = 1.0 + m_parity * math.ulp(1.0)
        assert_matches_loop(x, 0.5 * math.ulp(1.0), 50)


def test_add_repeated_increment_below_half_ulp_changes_nothing():
    rng = random.Random(13)
    for _ in range(500):
        x = rng.uniform(1.0, 100.0)
        c = math.ulp(x) * rng.random() * 0.5
        assert_matches_loop(x, c, rng.randrange(0, 400))
        assert add_repeated(x, c, 10 ** 12) == x


def test_add_repeated_from_zero():
    rng = random.Random(14)
    for _ in range(500):
        c = rng.random() * 10 ** rng.uniform(-320, 0)
        assert_matches_loop(0.0, c, rng.randrange(0, 400))
    assert_matches_loop(0.0, 5e-324, 7)


def test_add_repeated_across_powers_of_two():
    rng = random.Random(15)
    for _ in range(2000):
        top = 2.0 ** rng.randrange(-30, 30)
        x = top - math.ulp(top / 2.0) * rng.randrange(1, 60)
        c = math.ulp(x) * rng.uniform(0.0, 9.0)
        assert_matches_loop(x, c, rng.randrange(0, 400))
    # long runs cross many powers of two
    assert_matches_loop(1e-3, 3.7e-5, 100_000)


def test_add_repeated_zero_steps_is_identity():
    for x, c in ((0.0, 1.0), (0.3, 2.7e-5), (1.0, 0.5 * math.ulp(1.0))):
        assert add_repeated(x, c, 0) == x
