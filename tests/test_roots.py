"""Integer roots of an integer polynomial."""

import math
import random

from hforge.roots import integer_roots


def times_linear(row, r):
    """``row`` times ``s - r``, coefficients lowest degree first."""
    return [-r * row[0], *[a - r * b for a, b in zip(row[1:], row)], row[-1]]


def test_roots_match_the_rational_root_theorem():
    rng = random.Random(31)
    for _ in range(400):
        row = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        row.append(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(0, 4)):
            row = times_linear(row, rng.randint(-40, 40))
        if len(row) < 2:
            continue
        # a nonzero integer root divides the lowest nonzero coefficient
        low = next(i for i, c in enumerate(row) if c)
        divisors = [0] * bool(low)
        for d in range(1, math.isqrt(abs(row[low])) + 1):
            if row[low] % d == 0:
                divisors += [d, -d, row[low] // d, -row[low] // d]
        want = {t for t in divisors if sum(c * t**i for i, c in enumerate(row)) == 0}
        assert integer_roots(row) == sorted(want), row


def test_huge_coefficients_end_the_scan_in_a_few_steps():
    # a root far from the others, and no root at all: a scan of every
    # integer below the bound would not end
    assert integer_roots((3 * 10**12, 3, 10**12, 1)) == [-(10**12)]
    assert integer_roots((10**40, 0, 1)) == []
    assert integer_roots((6, 5, 1)) == [-3, -2]
