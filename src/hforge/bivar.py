"""Dense bivariate polynomials in (x, s) and unreduced bivariate fractions.

``BiPoly`` keeps every polynomial in content x primitive-part form (Knuth,
TAOCP vol. 2, 4.6.1): a positive rational content, held as two ints, times
a primitive integer part stored densely as a tuple of x-rows, row i the
integer coefficients of x^i s^0, x^i s^1, ... .  The form is unique, so
equality and hashing are exact and cheap, and arithmetic runs on integers;
the rational coefficients are a cached, read-only ``terms`` view.
Products by ``s + j`` or ``x + 1`` are one shift-and-add pass over the
rows; others run the schoolbook loop, or, when the smaller operand has at
least ``PACKED_MUL_MIN_TERMS`` entries, Kronecker substitution: each part
is packed into one Python int and one big-int product does the
convolution.
``BiFrac`` is a quotient of two ``BiPoly`` values that is *never* reduced
by a multivariate gcd; equality is decided by cross-multiplication
(``a/b == c/d`` iff ``a*d == c*b``), with only cheap opportunistic
stripping of shared rational content and shared monomials.  The two
cross products are never expanded: their contents are compared, then
their packed primitive parts as two big-int products, which is exact
because the slots are wide enough that no digit carries (see
``BiFrac.__eq__``).

``FactoredFrac`` is the internal evaluation workhorse: a fraction whose
denominator is kept as an insertion-ordered ``{key: multiplicity}`` dict:
``s + j`` has the key ``j`` and ``x + 1`` the key ``X1``.  So long
summations reuse shared factors, found by one int hash, instead of letting
cross-multiplied denominators grow quadratically.  A product cancels
each linear factor of either operand's denominator that divides the
other's numerator exactly.  It converts to ``BiFrac`` for comparison.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, zip_longest
from types import MappingProxyType
from typing import Union

from .exact import PoleError, ZeroDenominatorError, poly_gcd

Key = tuple[int, int]  # (x degree, s degree) of a ``terms`` entry
Rows = tuple[tuple[int, ...], ...]  # row i: coefficients of x^i s^0, x^i s^1, ...


_ZERO = Fraction(0)


def _as_fraction(c: Union[int, Fraction]) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact scalar, got {type(c).__name__}")


# -- integer rows ----------------------------------------------------------
#
# A primitive part is a tuple of rows, each a tuple of ints with no trailing
# zero (an absent x-degree is the empty row), the last row nonempty and the
# gcd of all entries 1; the zero polynomial has no rows.


def _trim(row) -> tuple[int, ...]:
    """``row`` without its trailing zeros, as a tuple."""
    if row and row[-1]:
        return tuple(row)
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return tuple(row[:end])


def _lincomb(a, ma: int, b, mb: int) -> list[int]:
    """``ma*a + mb*b`` for two rows of any lengths (not trimmed)."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = [ma * u + mb * v for u, v in zip(a, b)]
    out += a[len(b):] if ma == 1 else [ma * u for u in a[len(b):]]
    return out


def _neg(rows: Rows) -> Rows:
    return tuple([tuple([-v for v in r]) for r in rows])


def _canonical(n: int, d: int, rows) -> tuple[int, int, Rows]:
    """(content numerator, denominator, primitive part) of ``n/d * rows``
    for ``d > 0`` and rows of any ints, trailing zeros allowed."""
    rows = [_trim(r) for r in rows]
    while rows and not rows[-1]:
        rows.pop()
    if not rows or not n:
        return 0, 1, ()
    g = 0
    for r in rows:
        g = math.gcd(g, *r)
        if g == 1:
            break
    if n < 0:  # a negative divisor makes the content positive
        g = -g
    if g != 1:
        n *= g
        rows = [tuple([v // g for v in r]) for r in rows]
    g = math.gcd(n, d)
    return n // g, d // g, tuple(rows)


def _cmul(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """``na/da * nb/db`` in lowest terms, for two fractions in lowest terms."""
    g, h = math.gcd(na, db), math.gcd(nb, da)
    return (na // g) * (nb // h), (da // h) * (db // g)


def _dense(ints: list[tuple[Key, int]]) -> list[list[int]]:
    """The sum of ``((i, j), c)`` pairs as rows (trailing zeros allowed)."""
    width = 1 + max((j for (_, j), _ in ints), default=-1)
    rows = [[0] * width for _ in range(1 + max((i for (i, _), _ in ints), default=-1))]
    for (i, j), v in ints:
        rows[i][j] += v
    return rows


# -- products by s + j and x + 1 -------------------------------------------

X1 = "x + 1"  # the FactoredFrac key of the factor x + 1


def times_linear(row, j: int) -> tuple[int, ...]:
    """Coefficients of ``row * (s + j)``, lowest degree first."""
    return (j * row[0], *[j * u + v for u, v in zip(row[1:], row)], row[-1]) if row else ()


def _linear_key(rows: Rows):
    """``(key, sign)`` of a primitive part that is ``sign * (s + j)`` or
    ``sign * (x + 1)``, else None."""
    if len(rows) == 1 and len(rows[0]) == 2 and rows[0][1] in (1, -1):
        return rows[0][0] * rows[0][1], rows[0][1]
    if rows in (((1,), (1,)), ((-1,), (-1,))):
        return X1, rows[0][0]
    return None


def _times_key(rows: Rows, key) -> Rows:
    """``rows`` times the linear factor with this key, in one pass."""
    if key is not X1:
        return tuple([times_linear(r, key) for r in rows])
    # row i of the product is row i plus row i - 1
    inner = [_trim(_lincomb(a, 1, b, 1)) for a, b in zip(rows[1:], rows)]
    return (rows[0], *inner, rows[-1]) if rows else rows


# -- Kronecker substitution ---------------------------------------------------
#
# A primitive part packs into one Python int: the coefficient of x^i s^j
# goes, as a signed w-byte digit, into slot ``i*stride + j``.  That is the
# polynomial evaluated at s = 2^(8w) and x = 2^(8w*stride), a ring
# homomorphism, so one big-int product (CPython's Karatsuba) computes the
# whole convolution (Harvey, "Faster polynomial multiplication via
# multipoint Kronecker substitution", J. Symb. Comput. 2009).  When stride
# exceeds the product's s-degree and every product coefficient c has
# |c| < 2^(8w-1), the slots neither overlap nor carry, and the balanced
# base-2^(8w) digits of the product are its coefficients.

# A product whose smaller operand has fewer entries than this runs the
# schoolbook loop: there, packing and unpacking cost more than the
# pairwise products they replace.  Over the catalog sweeps' products, the
# schoolbook loop won at every size at n <= 15 (at most 16 entries), and
# at n <= 25 the packed route won from 17 entries.
PACKED_MUL_MIN_TERMS = 17


def _slot_width(ra: Rows, rb: Rows) -> int:
    """Bytes per slot so that every coefficient c of ``ra * rb`` has
    |c| < 2^(8w-1): each is a sum of at most min(size) pairwise products."""
    bound = (
        max(map(abs, chain.from_iterable(ra)))
        * max(map(abs, chain.from_iterable(rb)))
        * min(sum(map(len, ra)), sum(map(len, rb)))
    )
    return bound.bit_length() // 8 + 1


def _pack(rows: Rows, stride: int, w: int) -> int:
    """``sum rows[i][j] * 2^(8w*(i*stride + j))`` for rows shorter than
    ``stride`` and |entry| < 2^(8w).  Each row's value, by Horner's rule,
    goes into one byte buffer if positive and into another if negative."""
    shift, span = 8 * w, stride * w
    pos, neg = bytearray(len(rows) * span), bytearray(len(rows) * span)
    for at, row in zip(range(0, len(rows) * span, span), rows):
        value = 0
        for v in reversed(row):
            value = (value << shift) + v
        (neg if value < 0 else pos)[at:at + span] = abs(value).to_bytes(span, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(packed: int, stride: int, w: int, nrows: int) -> Rows:
    """The balanced digits of ``packed`` as ``nrows`` rows of ``stride``
    slots, for a value whose digits all satisfy |c| < 2^(8w-1)."""
    slots = nrows * stride
    half = int.from_bytes((bytes(w - 1) + b"\x80") * slots, "little")
    # Adding 2^(8w-1) to every slot makes each digit nonnegative without a
    # carry; flipping that bit back leaves each slot in two's complement.
    buf = ((packed + half) ^ half).to_bytes(slots * w, "little")
    span = stride * w
    return tuple(_trim([int.from_bytes(buf[at:at + w], "little", signed=True)
                        for at in range(start, start + span, w)])
                 for start in range(0, slots * w, span))


def _packed_mul(ra: Rows, rb: Rows) -> Rows:
    """``ra * rb`` by one big-int product."""
    stride = max(map(len, ra)) + max(map(len, rb)) - 1
    w = _slot_width(ra, rb)
    packed = _pack(ra, stride, w) * _pack(rb, stride, w)
    return _unpack(packed, stride, w, len(ra) + len(rb) - 1)


def _conv(a, b) -> tuple[int, ...]:
    """The product of two nonempty rows."""
    out = [0] * (len(a) + len(b) - 1)
    for j, v in enumerate(b):
        if v:
            for i, u in enumerate(a, j):
                out[i] += u * v
    return tuple(out)


def _schoolbook(ra: Rows, rb: Rows) -> Rows:
    """``ra * rb`` by pairwise products: row by row when one operand is one
    row, else on one flat list of rows of the product's width."""
    if len(ra) == 1:
        ra, rb = rb, ra
    if len(rb) == 1:
        return tuple([_conv(a, rb[0]) if a else () for a in ra])
    w = max(map(len, ra)) + max(map(len, rb)) - 1
    tb = [(i * w + j, v) for i, row in enumerate(rb) for j, v in enumerate(row) if v]
    out = [0] * ((len(ra) + len(rb) - 1) * w)
    for i, row in enumerate(ra):
        for at, u in enumerate(row, i * w):
            if u:
                for k, v in tb:
                    out[at + k] += u * v
    return tuple(_trim(out[at:at + w]) for at in range(0, len(out), w))


def _rows_mul(ra: Rows, rb: Rows) -> Rows:
    """The product of two nonzero primitive parts, primitive again by
    Gauss's lemma."""
    sa, sb = sum(map(len, ra)), sum(map(len, rb))  # stored entries
    if sa < sb:
        ra, rb, sb = rb, ra, sa
    if sb == 1:  # a constant, or x^k: empty rows, then (1,) or (-1,)
        return rb[:-1] + (ra if rb[-1][0] == 1 else _neg(ra))
    linear = _linear_key(rb)
    if linear:
        out = _times_key(ra, linear[0])
        return out if linear[1] == 1 else _neg(out)
    if sb >= PACKED_MUL_MIN_TERMS:
        return _packed_mul(ra, rb)
    return _schoolbook(ra, rb)


def _horner(coeffs, p: int, q: int) -> int:
    """``sum c_i p^i q^(D-i)`` for coefficients c_0..c_D: q^D times the
    value at p/q."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _div_linear(coeffs, p: int, q: int) -> list[int] | None:
    """Integer coefficients of ``c(t) / (q*t - p)``, or None if it is not
    exact; by Gauss's lemma an exact quotient has integer coefficients."""
    out, carry = [], 0
    for c in coeffs[:0:-1]:
        carry, r = divmod(c + p * carry, q)
        if r:
            return None
        out.append(carry)
    return None if coeffs and coeffs[0] + p * carry else out[::-1]


def _div_exact(a, b) -> tuple[int, ...]:
    """Integer coefficients of ``a(t) / b(t)`` for a primitive ``b`` that
    divides ``a``; by Gauss's lemma the quotient has integer coefficients."""
    rem, db = list(a), len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[i + db], b[-1])
        if r:
            raise ValueError("inexact polynomial division")
        out[i] = c
        for j, v in enumerate(b):
            rem[i + j] -= c * v
    if any(rem):
        raise ValueError("inexact polynomial division")
    return tuple(out)


class BiPoly:
    """Dense bivariate polynomial in content x primitive-part form.

    A nonzero polynomial is ``_n/_d * sum _r[i][j] x^i s^j``, ``_n/_d`` a
    positive fraction in lowest terms and ``_r`` a primitive part (see
    *integer rows*); zero has ``_n == 0, _d == 1`` and no rows.  By Gauss's
    lemma a product of primitive parts is primitive, so products take no gcd.
    """

    __slots__ = ("_n", "_d", "_r", "_terms", "_hash")

    def __init__(self, terms: Mapping[Key, Union[int, Fraction]] = ()):
        src = terms.items() if isinstance(terms, Mapping) else terms
        fracs = [(k, _as_fraction(c)) for k, c in src]
        scale = math.lcm(*(c.denominator for _, c in fracs))
        ints = [(k, c.numerator * (scale // c.denominator)) for k, c in fracs]
        self._n, self._d, self._r = _canonical(1, scale, _dense(ints))
        self._terms = self._hash = None

    @classmethod
    def _raw(cls, n: int, d: int, r: Rows) -> "BiPoly":
        """Wrap a form that is already canonical."""
        out = cls.__new__(cls)
        out._n, out._d, out._r, out._terms, out._hash = n, d, r, None, None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable, scale=1) -> "BiPoly":
        """``scale * sum rows[i][j] x^i s^j`` for rows of ints."""
        scale = _as_fraction(scale)
        return cls._raw(*_canonical(scale.numerator, scale.denominator, rows))

    @classmethod
    def from_ints(cls, ints: Mapping[Key, int], scale=1) -> "BiPoly":
        """``scale * sum ints[(i, j)] x^i s^j``; zero coefficients are dropped."""
        return cls.from_rows(_dense(list(ints.items())), scale)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw(0, 1, ())

    @classmethod
    def one(cls) -> "BiPoly":
        return cls._raw(1, 1, ((1,),))

    @classmethod
    def const(cls, c) -> "BiPoly":
        c = _as_fraction(c)
        if not c:
            return cls.zero()
        return cls._raw(abs(c.numerator), c.denominator, ((1 if c > 0 else -1,),))

    @classmethod
    def x(cls, e: int = 1) -> "BiPoly":
        return cls._raw(1, 1, ((),) * e + ((1,),))

    @classmethod
    def s(cls, e: int = 1) -> "BiPoly":
        return cls._raw(1, 1, ((0,) * e + (1,),))

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """Read-only ``{(x_degree, s_degree): Fraction}`` of the nonzero
        coefficients, derived from the content and the integer rows."""
        if self._terms is None:
            n, d = self._n, self._d
            self._terms = {(i, j): Fraction(n * v, d)
                           for i, r in enumerate(self._r) for j, v in enumerate(r) if v}
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._r

    def is_constant(self) -> bool:
        r = self._r
        return not r or (len(r) == 1 and len(r[0]) == 1)

    def as_constant(self) -> Fraction:
        if not self._r:
            return _ZERO
        if self.is_constant():
            return Fraction(self._n * self._r[0][0], self._d)
        raise ValueError("not a constant")

    @property
    def deg_x(self) -> int:
        return len(self._r) - 1

    @property
    def deg_s(self) -> int:
        return max(map(len, self._r), default=0) - 1

    def min_x(self) -> int:
        return next((i for i, r in enumerate(self._r) if r), 0)

    def min_s(self) -> int:
        return min((len(r) - len(_trim(r[::-1])) for r in self._r if r), default=0)

    def content(self) -> Fraction:
        """Positive generator of the coefficients' Z-module (0 for zero)."""
        return Fraction(self._n, self._d)

    # -- arithmetic --------------------------------------------------------

    def _promote(self, other) -> "BiPoly | None":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if not self._r:
            return o
        if not o._r:
            return self
        # na/da*A + nb/db*B = (ma*A + mb*B) * n/d over the common denominator d
        na, da, nb, db = self._n, self._d, o._n, o._d
        d = da // math.gcd(da, db) * db
        n = math.gcd(na * (d // da), nb * (d // db))
        ma, mb = na * (d // da) // n, nb * (d // db) // n
        pairs = zip_longest(self._r, o._r, fillvalue=())
        rows = [_lincomb(a, ma, b, mb) for a, b in pairs]
        return BiPoly._raw(*_canonical(n, d, rows))

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._raw(self._n, self._d, _neg(self._r))

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def scale(self, c) -> "BiPoly":
        cn, cd = _as_fraction(c).as_integer_ratio() if type(c) is not int else (c, 1)
        if not cn:
            return BiPoly.zero()
        if (cn == 1 and cd == 1) or not self._r:
            return self
        n, d = _cmul(self._n, self._d, cn, cd)
        return BiPoly._raw(abs(n), d, _neg(self._r) if n < 0 else self._r)

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if not self._r or not o._r:
            return BiPoly.zero()
        n, d = _cmul(self._n, self._d, o._n, o._d)
        return BiPoly._raw(n, d, _rows_mul(self._r, o._r))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = BiPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- evaluation / substitution ----------------------------------------

    def _swapped(self) -> "BiPoly":
        """The polynomial with x and s exchanged."""
        return BiPoly._raw(*_canonical(self._n, self._d, zip_longest(*self._r, fillvalue=0)))

    def eval_x(self, x0) -> "BiPoly":
        """Collapse the x variable at a rational point; result is s-only."""
        return self._swapped().eval_s(x0)._swapped()

    def eval_s(self, s0) -> "BiPoly":
        if not self._r:
            return self
        s0 = _as_fraction(s0)
        p, q = s0.numerator, s0.denominator
        top = self.deg_s + 1
        col = [(_horner(r + (0,) * (top - len(r)), p, q),) for r in self._r]
        return BiPoly._raw(*_canonical(self._n, self._d * q ** (top - 1), col))

    def eval(self, s0, x0) -> Fraction:
        return self.eval_x(x0).eval_s(s0).as_constant()

    def synth_div_x(self, x0) -> "BiPoly":
        """Exact division by ``x - x0``; raises if the remainder is nonzero."""
        return self._swapped().synth_div_s(x0)._swapped()

    def synth_div_s(self, s0) -> "BiPoly":
        """Exact division by ``s - s0``; raises if the remainder is nonzero."""
        s0 = _as_fraction(s0)
        p, q = s0.numerator, s0.denominator
        rows = [_div_linear(r, p, q) for r in self._r]
        if None in rows:
            raise ValueError("inexact division by a linear factor")
        return BiPoly._raw(*_canonical(self._n * q, self._d, rows))

    def shift_down(self, dx: int, ds: int) -> "BiPoly":
        """Exact division by the monomial ``x^dx * s^ds``."""
        if not dx and not ds:
            return self
        return BiPoly._raw(self._n, self._d, tuple(r[ds:] for r in self._r[dx:]))

    def deriv_s(self) -> "BiPoly":
        rows = [[j * v for j, v in enumerate(r)][1:] for r in self._r]
        return BiPoly._raw(*_canonical(self._n, self._d, rows))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self._r == o._r and self._n == o._n and self._d == o._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n, self._d, self._r))
        return self._hash

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for (ix, js) in sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0], -k[1])):
            c = terms[(ix, js)]
            monos = []
            if ix:
                monos.append("x" if ix == 1 else f"x^{ix}")
            if js:
                monos.append("s" if js == 1 else f"s^{js}")
            body = "*".join(monos)
            if not body:
                mono = str(abs(c))
            elif abs(c) == 1:
                mono = body
            else:
                mono = f"{abs(c)}*{body}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __repr__(self):
        return f"BiPoly({self})"


class BiFrac:
    """Unreduced bivariate fraction with cross-multiplication equality.

    Construction strips shared rational content and shared monomials (cheap,
    size-controlling) and normalizes the sign of the denominator's leading
    term, but never runs a polynomial gcd.  Equality compares the contents
    of the cross products, then their packed primitive parts as big-int
    products; ``__eq__`` states why that decides ``a*d == c*b`` exactly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = self._coerce(num)
        den = BiPoly.one() if den is None else self._coerce(den)
        if den.is_zero():
            raise ZeroDenominatorError("bivariate fraction with zero denominator")
        if num.is_zero():
            self.num, self.den = BiPoly.zero(), BiPoly.one()
            return
        mx = min(num.min_x(), den.min_x())
        ms = min(num.min_s(), den.min_s())
        # dividing both by the gcd of the contents leaves coprime integers
        cn, cd = num._n * den._d, den._n * num._d
        g = math.gcd(cn, cd)
        rn, rd = num._r, den._r
        # the leading term by total degree, then x-degree, is made positive
        _, lead_row = max((i + len(r), i) for i, r in enumerate(rd) if r)
        if rd[lead_row][-1] < 0:
            rn, rd = _neg(rn), _neg(rd)
        self.num = BiPoly._raw(cn // g, 1, rn).shift_down(mx, ms)
        self.den = BiPoly._raw(cd // g, 1, rd).shift_down(mx, ms)

    @staticmethod
    def _coerce(v) -> BiPoly:
        if isinstance(v, BiPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return BiPoly.const(v)
        raise TypeError(f"cannot build a bivariate fraction from {type(v).__name__}")

    @classmethod
    def from_rational(cls, c) -> "BiFrac":
        return cls(BiPoly.const(c))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant fraction")
        return self.num.as_constant() / self.den.as_constant()

    @property
    def deg_x(self) -> int:
        return max(self.num.deg_x, self.den.deg_x)

    @property
    def deg_s(self) -> int:
        return max(self.num.deg_s, self.den.deg_s)

    # -- arithmetic --------------------------------------------------------

    def _promote(self, other) -> "BiFrac | None":
        if isinstance(other, BiFrac):
            return other
        if isinstance(other, (int, Fraction, BiPoly)):
            return BiFrac(other)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return BiFrac(self.num + o.num, self.den)
        return BiFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = BiFrac.__new__(BiFrac)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return BiFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDenominatorError("division by the zero fraction")
        return BiFrac(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("fraction powers take integer exponents")
        if e >= 0:
            return BiFrac(self.num ** e, self.den ** e)
        if self.num.is_zero():
            raise ZeroDenominatorError("zero fraction has no inverse")
        return BiFrac(self.den ** (-e), self.num ** (-e))

    def deriv_s(self) -> "BiFrac":
        """Formal partial derivative in s via the quotient rule (unreduced)."""
        n, d = self.num, self.den
        return BiFrac(n.deriv_s() * d - n * d.deriv_s(), d * d)

    # -- substitution ------------------------------------------------------

    def subst_x(self, x0) -> "BiFrac":
        """Substitute a rational value for x, cancelling removable zeros.

        Shared roots of numerator and denominator at ``x0`` are removed by
        exact division by ``x - x0`` (ordinary synthetic division, not a
        gcd); a surviving denominator root raises :class:`PoleError`.
        """
        x0 = _as_fraction(x0)
        num, den = self.num, self.den
        while True:
            dv = den.eval_x(x0)
            if not dv.is_zero():
                return BiFrac(num.eval_x(x0), dv)
            if not num.eval_x(x0).is_zero():
                raise PoleError(x0, var="x")
            num = num.synth_div_x(x0)
            den = den.synth_div_x(x0)

    def subst_s(self, s0) -> "BiFrac":
        s0 = _as_fraction(s0)
        num, den = self.num, self.den
        while True:
            dv = den.eval_s(s0)
            if not dv.is_zero():
                return BiFrac(num.eval_s(s0), dv)
            if not num.eval_s(s0).is_zero():
                raise PoleError(s0, var="s")
            num = num.synth_div_s(s0)
            den = den.synth_div_s(s0)

    def eval(self, s0, x0) -> Fraction:
        return self.subst_x(x0).subst_s(s0).as_constant()

    def lowest_terms(self) -> tuple[BiPoly, BiPoly]:
        """Numerator and monic denominator of an x-free value in lowest
        terms, for display: both integer s-rows are divided by their gcd.
        Verification never reduces; it compares by cross-multiplication."""
        num, den = self.num, self.den
        if num.deg_x > 0 or den.deg_x > 0:
            raise ValueError("fraction depends on x")
        if not num._r:
            return num, den
        rn, rd = num._r[0], den._r[0]
        g = poly_gcd(rn, rd)
        if len(g) > 1:
            rn, rd = _div_exact(rn, g), _div_exact(rd, g)
        # num/den = (cn*rn)/(cd*rd); dividing both by cd*lead(rd) makes den monic
        lead = rd[-1]
        scale = Fraction(num._n * den._d, num._d * den._n * lead)
        return BiPoly.from_rows((rn,), scale), BiPoly.from_rows((rd,), Fraction(1, lead))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        """``a/b == c/d`` iff ``a*d == c*b``, decided without expanding
        either product.

        Write each polynomial as content x primitive part, ``a = ca*A``.
        By Gauss's lemma ``A*D`` and ``C*B`` are primitive, and the
        content x primitive form is unique, so ``a*d == c*b`` iff
        ``ca*cd == cc*cb`` and ``A*D == C*B``.  The contents are compared
        first, then the s-degrees (over Z the degree of a product is the
        sum of its factors' degrees).  Then the four primitive parts are
        packed in one layout (see ``_pack``), with a stride above the
        s-degree of both products and a slot width w that holds every
        coefficient of either product below 2^(8w-1).  Packing is
        evaluation at s = 2^(8w), x = 2^(8w*stride), a ring homomorphism,
        so the packed products are the packed ``A*D`` and ``C*B``; it is
        injective on such polynomials, because an integer has one balanced
        base-2^(8w) expansion.  So the two big-int products are equal iff
        ``A*D == C*B``: a pass is still a proof.
        """
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        # a zero numerator has content 0; two zeros both have den 1
        a, d, c, b = self.num, o.den, o.num, self.den
        if a._n * d._n * c._d * b._d != c._n * b._n * a._d * d._d:
            return False
        A, D, C, B = a._r, d._r, c._r, b._r
        deg_s = [t.deg_s for t in (a, d, c, b)]
        if deg_s[0] + deg_s[1] != deg_s[2] + deg_s[3]:
            return False
        stride = deg_s[0] + deg_s[1] + 1
        w = max(_slot_width(A, D), _slot_width(C, B))
        left = _pack(A, stride, w) * _pack(D, stride, w)
        return left == _pack(C, stride, w) * _pack(B, stride, w)

    def __hash__(self):
        """Hash of invariants of the value, so that equal fractions in
        different unreduced forms hash alike.

        Multiplying numerator and denominator by one polynomial g adds
        deg_x(g) and deg_s(g) to both degrees, and multiplies both
        lex-leading terms (x before s) by that of g.  So the degree
        differences, the leading monomials' quotient and the ratio of the
        leading coefficients depend only on the value.  A constant hashes
        like the equal ``Fraction``.
        """
        num, den = self.num, self.den
        if not num._r:
            return hash(0)
        kn, kd = (num.deg_x, len(num._r[-1]) - 1), (den.deg_x, len(den._r[-1]) - 1)
        ratio = Fraction(num._n * num._r[-1][-1] * den._d, num._d * den._n * den._r[-1][-1])
        shape = (kn[0] - kd[0], kn[1] - kd[1], num.deg_s - den.deg_s)
        return hash(ratio) if shape == (0, 0, 0) else hash((shape, ratio))

    def __str__(self):
        if self.den.is_constant() and self.den.as_constant() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"BiFrac({self})"


def bifrac_eq(a: BiFrac, b: BiFrac) -> bool:
    """Cross-multiplication equality: a.num*b.den == b.num*a.den.

    Decided by ``BiFrac.__eq__`` without expanding either product: equal
    contents and equal packed primitive parts, exact because every slot
    is wide enough to hold a product coefficient with no carry.
    ``cross_difference`` expands the difference for a witness."""
    return a == b


def cross_difference(a: BiFrac, b: BiFrac) -> BiPoly:
    """The polynomial a.num*b.den - b.num*a.den (zero iff the values agree)."""
    return a.num * b.den - b.num * a.den


def _factor(key) -> BiPoly:
    """The factor a ``FactoredFrac`` key stands for."""
    rows = ((1,), (1,)) if key is X1 else ((key, 1),)
    return key if type(key) is BiPoly else BiPoly._raw(1, 1, rows)


def _times_factor(p: BiPoly, key, m: int) -> BiPoly:
    """``p * factor(key)^m``: m shift-and-add passes for a linear key, a
    product for any other."""
    if type(key) is BiPoly:
        return p * key ** m
    rows = p._r
    for _ in range(m):
        rows = _times_key(rows, key)
    return BiPoly._raw(p._n, p._d, rows)


def _times_factors(p: BiPoly, factors: Mapping) -> BiPoly:
    for key, m in factors.items():
        p = _times_factor(p, key, m)
    return p


def _div_key(rows: Rows, key) -> Rows | None:
    """``rows`` divided by the linear factor with this key, or None if the
    division leaves a remainder: for ``s + j`` one integer synthetic
    division per x-row, for ``x + 1`` one pass down the rows (row i - 1
    of the quotient is row i of ``rows`` less row i of the quotient)."""
    if key is not X1:
        out = []
        for r in rows:
            q = _div_linear(r, -key, 1)
            if q is None:
                return None
            out.append(tuple(q))
        return tuple(out)
    out, carry = [], ()
    for r in rows[:0:-1]:
        carry = _trim(_lincomb(r, 1, carry, -1))
        out.append(carry)
    return None if _trim(_lincomb(rows[0], 1, carry, -1)) else tuple(out[::-1])


def _split_linear(rows: Rows) -> tuple[Rows, dict]:
    """``rows`` with every ``x + 1`` and ``s + j`` divided out as often as
    the division is exact, and those factors as ``{key: multiplicity}``.
    An ``s + j`` divides every x-row, so -j is an integer root of the
    x-row with the fewest terms."""
    # imported on first use, so that a process that inverts no product of
    # linear factors does not compile the search
    from .roots import integer_roots

    row = min((r for r in rows if r), key=lambda r: len(r) - r.count(0))
    keys = [X1, *[-t for t in integer_roots(row)]] if len(row) > 1 else [X1]
    found = {}
    for key in keys:
        while (quotient := _div_key(rows, key)) is not None:
            rows = quotient
            found[key] = found.get(key, 0) + 1
    return rows, found


def _cancel(p: BiPoly, factors: dict) -> tuple[BiPoly, dict]:
    """``p`` divided by each linear factor of ``factors`` for as long as
    the division is exact, and the factors that are left.

    A primitive part divided by a monic factor stays primitive (Gauss's
    lemma), so the content is unchanged."""
    rows, left = p._r, None
    for key, m in factors.items():
        if type(key) is BiPoly:
            continue
        k = 0
        while k < m:
            quotient = _div_key(rows, key)
            if quotient is None:
                break
            rows, k = quotient, k + 1
        if k:
            if left is None:
                left = dict(factors)
            if k == m:
                del left[key]
            else:
                left[key] = m - k
    if left is None:
        return p, factors
    return BiPoly._raw(p._n, p._d, rows), left


class FactoredFrac:
    """Fraction whose denominator is kept as ``{key: multiplicity}``.

    ``_f`` maps the key of each nonconstant factor to a positive
    multiplicity, in order of first appearance: the int ``j`` for
    ``s + j``, ``X1`` for ``x + 1``, and the primitive part for any other
    factor (the catalog and the corpus make none).  A factor's rational
    multiple of its key goes to the numerator, so equal factors built
    separately share one key.  ``inverse`` gives each ``s + j`` and
    ``x + 1`` that divides the numerator a key of its own, so that
    ``C(s+3, 3) / C(s+3, 2)`` cancels to ``(s + 1) / 3``.
    Addition builds the factorwise least common denominator, so repeated
    sums over ``1/(s+j)``- and ``1/(x+1)``-style terms never cross-multiply
    full denominators.  Multiplication first cancels linear factors: each
    operand's numerator is divided by every ``s + j`` and ``x + 1`` of the
    other's denominator for as long as the division is exact, and each
    exact division lowers that factor's multiplicity by one (``_cancel``).
    So ``C(s+n, k) * (psi(s+n+1) - psi(s+n-k+1))`` is a polynomial with
    no denominator.  Other factors are never divided.  Purely an
    evaluation intermediate: comparisons go through :meth:`to_bifrac`,
    and a value's denominator, so also the cross difference a failing
    comparison prints, depends on the cancellations made on the way.
    Values are shared (the factor memo hands out one object to every
    caller), so ``_f`` is never mutated.
    """

    __slots__ = ("num", "_f")

    def __init__(
        self,
        num: BiPoly,
        den: Mapping[BiPoly, int] | Iterable[tuple[BiPoly, int]] = (),
    ):
        if num.is_zero():
            self.num, self._f = BiPoly.zero(), {}
            return
        clean: dict = {}
        for f, m in den.items() if isinstance(den, Mapping) else den:
            m = int(m)
            if m <= 0:
                continue
            if f.is_zero():
                raise ZeroDenominatorError("zero denominator factor")
            if f.is_constant():
                num = num.scale(f.as_constant() ** -m)
                continue
            # f = c * key, with c moved to the numerator
            linear = _linear_key(f._r)
            sign, key = (linear[1], linear[0]) if linear else (1, BiPoly._raw(1, 1, f._r))
            num = num.scale(Fraction(sign * f._n, f._d) ** -m)
            clean[key] = clean.get(key, 0) + m
        self.num, self._f = num, clean

    @classmethod
    def _raw(cls, num: BiPoly, factors: dict) -> "FactoredFrac":
        """Wrap ``factors`` as is: keys with positive multiplicities."""
        out = cls.__new__(cls)
        out.num, out._f = num, factors if num._r else {}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, c) -> "FactoredFrac":
        return cls(BiPoly.const(c))

    @classmethod
    def var_x(cls) -> "FactoredFrac":
        return cls(BiPoly.x())

    @classmethod
    def var_s(cls) -> "FactoredFrac":
        return cls(BiPoly.s())

    @classmethod
    def over_shifts(cls, num: BiPoly, shifts: Mapping[int, int]) -> "FactoredFrac":
        """``num / prod_j (s + j)^shifts[j]``, for positive multiplicities."""
        return cls._raw(num, dict(shifts))

    # -- queries -----------------------------------------------------------

    @property
    def den(self) -> dict[BiPoly, int]:
        """The denominator as ``{factor: multiplicity}``, in key order."""
        return {_factor(k): m for k, m in self._f.items()}

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and not self._f

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.as_constant()

    # -- arithmetic --------------------------------------------------------

    @classmethod
    def _promote(cls, v) -> "FactoredFrac | None":
        if isinstance(v, FactoredFrac):
            return v
        if isinstance(v, (int, Fraction)):
            return cls.from_scalar(v)
        if isinstance(v, BiPoly):
            return cls(v)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        da, db = self._f, o._f
        if da == db:
            return FactoredFrac._raw(self.num + o.num, da)
        merged = dict(da)
        for k, m in db.items():
            if m > merged.get(k, 0):
                merged[k] = m
        num_a = self.num
        num_b = o.num
        for k, m in merged.items():
            deficit = m - da.get(k, 0)
            if deficit:
                num_a = _times_factor(num_a, k, deficit)
            deficit = m - db.get(k, 0)
            if deficit:
                num_b = _times_factor(num_b, k, deficit)
        return FactoredFrac._raw(num_a + num_b, merged)

    __radd__ = __add__

    def __neg__(self):
        return FactoredFrac._raw(-self.num, self._f)

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredFrac._raw(self.num.scale(other), self._f)
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero() or o.num.is_zero():
            return FactoredFrac(BiPoly.zero())
        num_a, fb = _cancel(self.num, o._f)
        num_b, fa = _cancel(o.num, self._f)
        merged = dict(fa)
        for k, m in fb.items():
            merged[k] = merged.get(k, 0) + m
        return FactoredFrac._raw(num_a * num_b, merged)

    __rmul__ = __mul__

    def inverse(self) -> "FactoredFrac":
        num = self.num
        if num.is_zero():
            raise ZeroDenominatorError("inverse of zero")
        mx, ms = num.min_x(), num.min_s()
        rest = num.shift_down(mx, ms)
        factors = [(BiPoly.x(), mx), (BiPoly.s(), ms)]
        if not rest.is_constant() and _linear_key(rest._r) is None:
            # a product of linear factors gets one key per factor, which
            # _cancel can divide out, and only what is left is one key
            rows, linear = _split_linear(rest._r)
            factors += [(_factor(key), m) for key, m in linear.items()]
            rest = BiPoly._raw(rest._n, rest._d, rows)
        factors.append((rest, 1))
        return FactoredFrac(_times_factors(BiPoly.one(), self._f), factors)

    def __truediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("fraction powers take integer exponents")
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return FactoredFrac(BiPoly.one())
        return FactoredFrac._raw(
            self.num ** e, {k: m * e for k, m in self._f.items()}
        )

    # -- conversion --------------------------------------------------------

    def to_bifrac(self) -> BiFrac:
        return BiFrac(self.num, _times_factors(BiPoly.one(), self._f))

    def __str__(self):
        if not self._f:
            return str(self.num)
        dens = " * ".join(
            f"({f})" if m == 1 else f"({f})^{m}" for f, m in self.den.items()
        )
        return f"({self.num}) / [{dens}]"

    def __repr__(self):
        return f"FactoredFrac({self})"


def ffsum(values: Iterable) -> FactoredFrac:
    """Sum of factored fractions; the empty sum is zero."""
    acc = FactoredFrac(BiPoly.zero())
    for v in values:
        acc = acc + v
    return acc
