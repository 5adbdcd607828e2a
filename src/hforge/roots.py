"""Integer roots of an integer polynomial, which ``FactoredFrac.inverse``
uses to give each ``s + j`` of a product a denominator key of its own."""

from __future__ import annotations

from typing import Sequence


def integer_roots(row: Sequence[int]) -> list[int]:
    """The integer roots of an integer polynomial (coefficients lowest
    degree first, degree >= 1, leading coefficient nonzero), ascending.

    Every root lies in (-B, B), B Fujiwara's bound
    ``2 max_k |row[d-k] / row[d]|^(1/k)`` with each k-th root rounded up
    to a power of two.  The scan over that interval steps from t by the
    largest power of two h with ``sum_k>=1 |c_k| h^k <= |p(t)|`` (or 1),
    c_k the coefficients of ``p(t + h)`` in h, so p has no root strictly
    between t and t + h: a stretch free of roots costs a few steps, not
    one per integer."""
    top, d = abs(row[-1]), len(row) - 1
    e = max(
        ((-(-abs(a) // top)).bit_length() + k - 1) // k
        for k, a in enumerate(row[-2::-1], 1)
    )
    bound = 2 << e
    roots, t = [], 1 - bound
    while t < bound:
        c = list(row)  # Taylor shift: c becomes p(t + h) in h
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += t * c[j + 1]
        v = abs(c[0])
        if not v:
            roots.append(t)
        h = 1
        while sum(abs(a) * (2 * h) ** k for k, a in enumerate(c) if k) <= v:
            h *= 2
        t += h
    return roots
