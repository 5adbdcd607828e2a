"""The exact layer: its error classes and the integer polynomial gcd."""

import random

import pytest

from hforge.bivar import BiFrac, BiPoly, _div_exact
from hforge.exact import ExactArithError, PoleError, ZeroDenominatorError, poly_gcd


def rand_row(rng, max_deg=3, span=6):
    return [rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))]


def times(a, b):
    """The product of two integer coefficient lists, by the definition."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def trimmed(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


class TestErrors:
    def test_pole_error_carries_location(self):
        b = BiFrac(BiPoly.s(), BiPoly.s() + 1)
        with pytest.raises(PoleError) as exc:
            b.subst_s(-1)
        assert exc.value.point == -1
        assert exc.value.var == "s"
        assert str(exc.value) == "evaluation at pole s = -1"
        assert isinstance(exc.value, ExactArithError)
        assert isinstance(exc.value, ArithmeticError)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDenominatorError):
            BiFrac(BiPoly.one(), BiPoly.zero())
        assert issubclass(ZeroDenominatorError, ExactArithError)


class TestGcd:
    def test_known_gcd(self):
        assert poly_gcd((1, 2, 1), (1, 1)) == (1, 1)
        assert poly_gcd((-1, 0, 1), (1, 1)) == (1, 1)
        # (2s + 2)(s - 3) and (4s + 4)(s + 5) share s + 1
        assert poly_gcd((-6, -4, 2), (20, 24, 4)) == (1, 1)
        assert poly_gcd((6, 5, 1), (-12, -7, -1)) == (3, 1)
        assert poly_gcd((1, 1), (0, 1)) == (1,)

    def test_zero_conventions(self):
        assert poly_gcd((), ()) == ()
        assert poly_gcd((0, 0), ()) == ()
        assert poly_gcd((4, -6, 0), ()) == (-2, 3)
        assert poly_gcd((), (0, -3)) == (0, 1)
        assert poly_gcd((5,), ()) == (1,)
        assert poly_gcd((5,), (7, 1)) == (1,)

    def test_gcd_divides_both_and_is_primitive(self):
        rng = random.Random(19)
        for _ in range(200):
            p, q = trimmed(rand_row(rng)), trimmed(rand_row(rng))
            g = poly_gcd(p, q)
            assert g == poly_gcd(q, p)
            if not p and not q:
                assert g == ()
                continue
            assert g[-1] > 0 and poly_gcd(g, ()) == g
            cofactors = [_div_exact(p, g), _div_exact(q, g)]
            assert [times(c, g) for c in cofactors] == [p, q]
            assert poly_gcd(*cofactors) == (1,)

    def test_common_factor_is_recovered(self):
        rng = random.Random(23)
        for _ in range(100):
            g, u, v = (trimmed(rand_row(rng, max_deg=2)) for _ in range(3))
            if not (g and u and v):
                continue
            got = poly_gcd(times(g, u), times(g, v))
            # primitive parts multiply to a primitive part (Gauss's lemma)
            assert _div_exact(got, poly_gcd(g, ())) == poly_gcd(u, v)
