"""Sparse bivariate polynomials in (x, s) and unreduced bivariate fractions.

``BiPoly`` keeps every polynomial in content x primitive-part form (Knuth,
TAOCP vol. 2, 4.6.1): a positive rational content times a dict from
``(x_degree, s_degree)`` to coprime integers.  The form is unique, so
equality and hashing are exact and cheap, and arithmetic runs on integers;
the rational coefficients are a derived, cached, read-only ``terms`` view.
Products of integer parts whose smaller operand has at least
``PACKED_MUL_MIN_TERMS`` terms run by Kronecker substitution: each part is
packed into one Python int and a single big-int product does the
convolution; smaller products run the schoolbook loop.
``BiFrac`` is a quotient of two ``BiPoly`` values that is *never* reduced
by a multivariate gcd; equality is decided by cross-multiplication
(``a/b == c/d`` iff ``a*d == c*b``), with only cheap opportunistic
stripping of shared rational content and shared monomials.  The two
cross products are never expanded: their contents are compared, then
their packed primitive parts as two big-int products, which is exact
because the slots are wide enough that no digit carries (see
``BiFrac.__eq__``).

``FactoredFrac`` is the internal evaluation workhorse: a fraction whose
denominator is kept as an insertion-ordered ``{factor: multiplicity}``
dict, so that long summations can reuse shared factors such as ``s + j``
and ``x + 1``, found by hash lookup, instead of letting cross-multiplied
denominators grow quadratically.  It converts to ``BiFrac`` for
comparison.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import Union

from .exact import (
    Poly,
    PoleError,
    RatFunc,
    ZeroDenominatorError,
    _as_fraction,
)

Key = tuple[int, int]  # (x degree, s degree)


def _fgcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive gcd on rationals: gcd(a/b, c/d) generates the same Z-module."""
    if not a:
        return abs(b)
    if not b:
        return abs(a)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primitive(scale: Fraction, ints: dict[Key, int]) -> tuple[Fraction, dict[Key, int]]:
    """Canonical (content, primitive part) of ``scale * ints``.

    ``ints`` holds no zero coefficients; the content comes out positive.
    """
    if not ints:
        return _ZERO, {}
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        scale = scale * g
    if scale < 0:
        return -scale, {k: -v for k, v in ints.items()}
    return scale, ints


# -- Kronecker substitution ---------------------------------------------------
#
# A primitive part ``{(i, j): int}`` packs into one Python int: the
# coefficient of x^i s^j goes, as a signed w-byte digit, into slot
# ``i*stride + j``.  That is the polynomial evaluated at s = 2^(8w) and
# x = 2^(8w*stride), a ring homomorphism, so one big-int product (CPython's
# Karatsuba) computes the whole convolution (Harvey, "Faster polynomial
# multiplication via multipoint Kronecker substitution", J. Symb. Comput.
# 2009).  When stride exceeds the product's s-degree and every product
# coefficient c has |c| < 2^(8w-1), the slots neither overlap nor carry,
# and the balanced base-2^(8w) digits of the product are its coefficients.

# A product whose smaller operand has fewer terms than this runs the
# schoolbook loop: there, packing and unpacking cost more than the
# pairwise products they replace (measured over the catalog's products).
PACKED_MUL_MIN_TERMS = 9


def _slot_width(ta: dict[Key, int], tb: dict[Key, int]) -> int:
    """Bytes per slot so that every coefficient c of ``ta * tb`` has
    |c| < 2^(8w-1): each is a sum of at most min(len) pairwise products."""
    bound = (
        max(map(abs, ta.values()))
        * max(map(abs, tb.values()))
        * min(len(ta), len(tb))
    )
    return bound.bit_length() // 8 + 1


def _pack(t: dict[Key, int], stride: int, w: int) -> int:
    """``sum t[(i, j)] * 2^(8w*(i*stride + j))``; needs ``j < stride`` and
    |t[k]| < 2^(8w) for every key.  The positive and the negative
    coefficients fill one byte buffer each, and their difference is the
    packed value."""
    size = (max(i for i, _ in t) + 1) * stride * w
    pos = bytearray(size)
    neg = None
    for (i, j), v in t.items():
        at = (i * stride + j) * w
        if v > 0:
            pos[at:at + w] = v.to_bytes(w, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[at:at + w] = (-v).to_bytes(w, "little")
    packed = int.from_bytes(pos, "little")
    if neg is not None:
        packed -= int.from_bytes(neg, "little")
    return packed


def _unpack(packed: int, stride: int, w: int, rows: int) -> dict[Key, int]:
    """The nonzero balanced digits of ``packed`` as ``{(i, j): int}``, for
    a value of ``rows * stride`` digits that all satisfy |c| < 2^(8w-1)."""
    slots = rows * stride
    half = int.from_bytes((bytes(w - 1) + b"\x80") * slots, "little")
    # Adding 2^(8w-1) to every slot makes each digit nonnegative without a
    # carry; flipping that bit back leaves each slot in two's complement.
    buf = ((packed + half) ^ half).to_bytes(slots * w, "little")
    out: dict[Key, int] = {}
    for i in range(rows):
        at = i * stride * w
        for j in range(stride):
            v = int.from_bytes(buf[at:at + w], "little", signed=True)
            if v:
                out[(i, j)] = v
            at += w
    return out


def _packed_mul(ta: dict[Key, int], tb: dict[Key, int]) -> dict[Key, int]:
    """``ta * tb`` by one big-int product."""
    rows = max(i for i, _ in ta) + max(i for i, _ in tb) + 1
    stride = max(j for _, j in ta) + max(j for _, j in tb) + 1
    w = _slot_width(ta, tb)
    return _unpack(_pack(ta, stride, w) * _pack(tb, stride, w), stride, w, rows)


class BiPoly:
    """Sparse bivariate polynomial in content x primitive-part form.

    A nonzero polynomial is ``_c * sum _t[k] x^i s^j`` with ``_c`` a positive
    ``Fraction`` and ``_t`` a ``{(i, j): int}`` dict of nonzero coprime
    integers; the zero polynomial has ``_c == 0`` and ``_t == {}``.  The form
    is unique, so equality and hashing work on it directly.  Products
    convolve the integer parts and multiply the contents: by Gauss's lemma
    the product of primitive polynomials is primitive, so no gcd is taken.
    ``terms`` is a cached read-only view of the rational coefficients.
    """

    __slots__ = ("_c", "_t", "_terms", "_hash")

    def __init__(self, terms: Mapping[Key, Union[int, Fraction]] = ()):
        clean: dict[Key, Fraction] = {}
        src = terms.items() if isinstance(terms, Mapping) else terms
        for (ix, js), c in src:
            c = _as_fraction(c)
            if c:
                k = (int(ix), int(js))
                v = clean.get(k)
                nv = c if v is None else v + c
                if nv:
                    clean[k] = nv
                elif v is not None:
                    del clean[k]
        scale = math.lcm(*(c.denominator for c in clean.values()))
        ints = {k: c.numerator * (scale // c.denominator) for k, c in clean.items()}
        self._set(*_primitive(Fraction(1, scale), ints))

    def _set(self, c: Fraction, t: dict[Key, int]) -> None:
        self._c = c
        self._t = t
        self._terms = None
        self._hash = None

    @classmethod
    def _raw(cls, c: Fraction, t: dict[Key, int]) -> "BiPoly":
        """Wrap a form that is already canonical: ``c > 0`` and ``t`` primitive."""
        out = cls.__new__(cls)
        out._set(c, t)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, ints: Mapping[Key, int], scale=1) -> "BiPoly":
        """``scale * sum ints[(i, j)] x^i s^j``; zero coefficients are dropped."""
        scale = _as_fraction(scale)
        if not scale:
            return cls.zero()
        return cls._raw(*_primitive(scale, {k: v for k, v in ints.items() if v}))

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw(_ZERO, {})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls._raw(_ONE, {(0, 0): 1})

    @classmethod
    def const(cls, c) -> "BiPoly":
        c = _as_fraction(c)
        if not c:
            return cls.zero()
        return cls._raw(abs(c), {(0, 0): 1 if c > 0 else -1})

    @classmethod
    def x(cls, e: int = 1) -> "BiPoly":
        return cls._raw(_ONE, {(e, 0): 1})

    @classmethod
    def s(cls, e: int = 1) -> "BiPoly":
        return cls._raw(_ONE, {(0, e): 1})

    @classmethod
    def from_s_poly(cls, p: Poly) -> "BiPoly":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)})

    @classmethod
    def from_x_poly(cls, p: Poly) -> "BiPoly":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """Read-only ``{(x_degree, s_degree): Fraction}`` of the nonzero
        coefficients, derived from the content and the integer part."""
        if self._terms is None:
            c = self._c
            self._terms = {k: c * v for k, v in self._t.items()}
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and (0, 0) in t)

    def as_constant(self) -> Fraction:
        if not self._t:
            return _ZERO
        if self.is_constant():
            return self._c * self._t[(0, 0)]
        raise ValueError("not a constant")

    @property
    def deg_x(self) -> int:
        return max((k[0] for k in self._t), default=-1)

    @property
    def deg_s(self) -> int:
        return max((k[1] for k in self._t), default=-1)

    def min_x(self) -> int:
        return min((k[0] for k in self._t), default=0)

    def min_s(self) -> int:
        return min((k[1] for k in self._t), default=0)

    def content(self) -> Fraction:
        """Positive generator of the coefficients' Z-module (0 for zero)."""
        return self._c

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
        if not self._t:
            return o
        if not o._t:
            return self
        ca, cb = self._c, o._c
        if ca == cb:
            scale, ma, mb = ca, 1, 1
        else:
            # ca*ta + cb*tb = (ma*ta + mb*tb) * h/L over the common denominator L
            da, db = ca.denominator, cb.denominator
            lcd = da // math.gcd(da, db) * db
            ma = ca.numerator * (lcd // da)
            mb = cb.numerator * (lcd // db)
            h = math.gcd(ma, mb)
            ma //= h
            mb //= h
            scale = Fraction(h, lcd)
        out = dict(self._t) if ma == 1 else {k: ma * v for k, v in self._t.items()}
        for k, v in o._t.items():
            if mb != 1:
                v *= mb
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
        return BiPoly._raw(*_primitive(scale, out))

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._raw(self._c, {k: -v for k, v in self._t.items()})

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
        c = _as_fraction(c)
        if not c:
            return BiPoly.zero()
        if c == 1 or not self._t:
            return self
        if c > 0:
            return BiPoly._raw(self._c * c, self._t)
        return BiPoly._raw(self._c * -c, {k: -v for k, v in self._t.items()})

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        ta, tb = self._t, o._t
        if not ta or not tb:
            return BiPoly.zero()
        if o.is_constant():
            return self.scale(o.as_constant())
        if self.is_constant():
            return o.scale(self.as_constant())
        if len(ta) < len(tb):
            ta, tb = tb, ta
        if len(tb) >= PACKED_MUL_MIN_TERMS:
            return BiPoly._raw(self._c * o._c, _packed_mul(ta, tb))
        out: dict[Key, int] = {}
        items_b = list(tb.items())
        for (xa, sa), va in ta.items():
            for (xb, sb), vb in items_b:
                k = (xa + xb, sa + sb)
                v = out.get(k)
                out[k] = va * vb if v is None else v + va * vb
        return BiPoly._raw(self._c * o._c, {k: v for k, v in out.items() if v})

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

    def eval_x(self, x0) -> "BiPoly":
        """Collapse the x variable at a rational point; result is s-only."""
        x0 = _as_fraction(x0)
        powers: dict[int, Fraction] = {}
        out: dict[Key, Fraction] = {}
        for (ix, js), c in self.terms.items():
            p = powers.get(ix)
            if p is None:
                p = x0 ** ix
                powers[ix] = p
            k = (0, js)
            v = out.get(k)
            nv = c * p if v is None else v + c * p
            if nv:
                out[k] = nv
            elif v is not None:
                del out[k]
        return BiPoly(out)

    def eval_s(self, s0) -> "BiPoly":
        s0 = _as_fraction(s0)
        powers: dict[int, Fraction] = {}
        out: dict[Key, Fraction] = {}
        for (ix, js), c in self.terms.items():
            p = powers.get(js)
            if p is None:
                p = s0 ** js
                powers[js] = p
            k = (ix, 0)
            v = out.get(k)
            nv = c * p if v is None else v + c * p
            if nv:
                out[k] = nv
            elif v is not None:
                del out[k]
        return BiPoly(out)

    def eval(self, s0, x0) -> Fraction:
        v = self.eval_x(x0).eval_s(s0)
        return v.as_constant()

    def synth_div_x(self, x0) -> "BiPoly":
        """Exact division by ``x - x0``; raises if the remainder is nonzero."""
        x0 = _as_fraction(x0)
        cols: dict[int, dict[int, Fraction]] = {}
        for (ix, js), c in self.terms.items():
            cols.setdefault(ix, {})[js] = c
        d = max(cols, default=-1)
        out: dict[Key, Fraction] = {}
        carry: dict[int, Fraction] = {}
        for i in range(d, 0, -1):
            col = cols.get(i, {})
            q: dict[int, Fraction] = dict(carry)
            for js, c in col.items():
                v = q.get(js)
                nv = c if v is None else v + c
                if nv:
                    q[js] = nv
                elif v is not None:
                    del q[js]
            for js, c in q.items():
                out[(i - 1, js)] = c
            carry = {js: c * x0 for js, c in q.items()}
        rem = dict(carry)
        for js, c in cols.get(0, {}).items():
            v = rem.get(js)
            nv = c if v is None else v + c
            if nv:
                rem[js] = nv
            elif v is not None:
                del rem[js]
        if rem:
            raise ValueError("inexact division by linear x factor")
        return BiPoly(out)

    def synth_div_s(self, s0) -> "BiPoly":
        """Exact division by ``s - s0``; raises if the remainder is nonzero."""
        s0 = _as_fraction(s0)
        cols: dict[int, dict[int, Fraction]] = {}
        for (ix, js), c in self.terms.items():
            cols.setdefault(js, {})[ix] = c
        d = max(cols, default=-1)
        out: dict[Key, Fraction] = {}
        carry: dict[int, Fraction] = {}
        for j in range(d, 0, -1):
            col = cols.get(j, {})
            q: dict[int, Fraction] = dict(carry)
            for ix, c in col.items():
                v = q.get(ix)
                nv = c if v is None else v + c
                if nv:
                    q[ix] = nv
                elif v is not None:
                    del q[ix]
            for ix, c in q.items():
                out[(ix, j - 1)] = c
            carry = {ix: c * s0 for ix, c in q.items()}
        rem = dict(carry)
        for ix, c in cols.get(0, {}).items():
            v = rem.get(ix)
            nv = c if v is None else v + c
            if nv:
                rem[ix] = nv
            elif v is not None:
                del rem[ix]
        if rem:
            raise ValueError("inexact division by linear s factor")
        return BiPoly(out)

    def shift_down(self, dx: int, ds: int) -> "BiPoly":
        """Exact division by the monomial ``x^dx * s^ds``."""
        if not dx and not ds:
            return self
        return BiPoly._raw(
            self._c, {(ix - dx, js - ds): v for (ix, js), v in self._t.items()}
        )

    def deriv_s(self) -> "BiPoly":
        return BiPoly._raw(
            *_primitive(
                self._c, {(ix, js - 1): v * js for (ix, js), v in self._t.items() if js}
            )
        )

    def to_s_poly(self) -> Poly:
        if self.deg_x > 0:
            raise ValueError("not univariate in s")
        coeffs = [Fraction(0)] * (self.deg_s + 1)
        for (_, js), c in self.terms.items():
            coeffs[js] = c
        return Poly(coeffs)

    def to_x_poly(self) -> Poly:
        if self.deg_s > 0:
            raise ValueError("not univariate in x")
        coeffs = [Fraction(0)] * (self.deg_x + 1)
        for (ix, _), c in self.terms.items():
            coeffs[ix] = c
        return Poly(coeffs)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self._t == o._t and self._c == o._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._c, frozenset(self._t.items())))
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
        g = _fgcd(num._c, den._c)
        mx = min(num.min_x(), den.min_x())
        ms = min(num.min_s(), den.min_s())
        lead_key = max(den._t, key=lambda k: (k[0] + k[1], k[0], k[1]))
        if den._t[lead_key] < 0:
            g = -g
        if g != 1:
            inv = 1 / g
            num = num.scale(inv)
            den = den.scale(inv)
        if mx or ms:
            num = num.shift_down(mx, ms)
            den = den.shift_down(mx, ms)
        self.num, self.den = num, den

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

    @classmethod
    def from_ratfunc(cls, rf: RatFunc) -> "BiFrac":
        return cls(BiPoly.from_s_poly(rf.num), BiPoly.from_s_poly(rf.den))

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
        if isinstance(other, RatFunc):
            return BiFrac.from_ratfunc(other)
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

    def to_ratfunc(self) -> RatFunc:
        if self.num.deg_x > 0 or self.den.deg_x > 0:
            raise ValueError("fraction depends on x")
        return RatFunc(self.num.to_s_poly(), self.den.to_s_poly())

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
        if a._c * d._c != c._c * b._c:
            return False
        A, D, C, B = a._t, d._t, c._t, b._t
        deg_s = [max(j for _, j in t) for t in (A, D, C, B)]
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
        if not num._t:
            return hash(0)
        kn, kd = max(num._t), max(den._t)
        ratio = num._c * num._t[kn] / (den._c * den._t[kd])
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


class FactoredFrac:
    """Fraction whose denominator is kept as ``{factor: multiplicity}``.

    ``den`` maps each nonconstant ``BiPoly`` factor to a positive
    multiplicity, in order of first appearance.  Factors are matched by
    hash lookup, so equal factors built separately share one key.
    Addition builds the factorwise least common denominator, so repeated
    sums over ``1/(s+j)``- and ``1/(x+1)``-style terms never cross-multiply
    full denominators.  Purely an evaluation intermediate: comparisons go
    through :meth:`to_bifrac`.  Values are shared (the factor memo hands
    out one object to every caller), so ``den`` is never mutated.
    """

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: BiPoly,
        den: Mapping[BiPoly, int] | Iterable[tuple[BiPoly, int]] = (),
    ):
        if num.is_zero():
            self.num, self.den = BiPoly.zero(), {}
            return
        clean: dict[BiPoly, int] = {}
        for f, m in den.items() if isinstance(den, Mapping) else den:
            m = int(m)
            if m <= 0:
                continue
            if f.is_zero():
                raise ZeroDenominatorError("zero denominator factor")
            if f.is_constant():
                num = num.scale(f.as_constant() ** -m)
                continue
            clean[f] = clean.get(f, 0) + m
        self.num, self.den = num, clean

    @classmethod
    def _raw(cls, num: BiPoly, den: dict[BiPoly, int]) -> "FactoredFrac":
        """Wrap ``den`` as is: nonconstant factors, positive multiplicities."""
        out = cls.__new__(cls)
        if num.is_zero():
            out.num, out.den = BiPoly.zero(), {}
        else:
            out.num, out.den = num, den
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
    def from_ratfunc(
        cls, rf: RatFunc, linear_roots: Iterable[tuple[int, int]] | None = None
    ) -> "FactoredFrac":
        """Embed a reduced rational function.

        ``linear_roots`` lists (j, multiplicity) pairs asserting that the
        denominator is exactly ``prod (s+j)^multiplicity``; the factors are
        peeled off by exact division so they can be shared structurally.
        """
        num = BiPoly.from_s_poly(rf.num)
        if rf.den.is_one() or rf.num.is_zero():
            return cls(num)
        if linear_roots is None:
            return cls(num, ((BiPoly.from_s_poly(rf.den), 1),))
        den = rf.den
        factors = []
        for j, m in linear_roots:
            lin = Poly.linear(j)
            for _ in range(m):
                den = den.div_exact(lin)
            factors.append((BiPoly.from_s_poly(lin), m))
        if not den.is_one():
            raise ValueError("denominator not exhausted by the declared roots")
        return cls(num, factors)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and not self.den

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
        if isinstance(v, RatFunc):
            return cls.from_ratfunc(v)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        da, db = self.den, o.den
        merged = dict(da)
        for f, m in db.items():
            if m > merged.get(f, 0):
                merged[f] = m
        num_a = self.num
        num_b = o.num
        for f, m in merged.items():
            deficit = m - da.get(f, 0)
            if deficit:
                num_a = num_a * f ** deficit
            deficit = m - db.get(f, 0)
            if deficit:
                num_b = num_b * f ** deficit
        return FactoredFrac._raw(num_a + num_b, merged)

    __radd__ = __add__

    def __neg__(self):
        return FactoredFrac._raw(-self.num, self.den)

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
        if self.num.is_zero() or o.num.is_zero():
            return FactoredFrac(BiPoly.zero())
        merged = dict(self.den)
        for f, m in o.den.items():
            merged[f] = merged.get(f, 0) + m
        return FactoredFrac._raw(self.num * o.num, merged)

    __rmul__ = __mul__

    def inverse(self) -> "FactoredFrac":
        if self.num.is_zero():
            raise ZeroDenominatorError("inverse of zero")
        new_num = BiPoly.one()
        for f, m in self.den.items():
            new_num = new_num * f ** m
        num = self.num
        if num.is_constant():
            return FactoredFrac(new_num.scale(1 / num.as_constant()))
        c = num.content()
        prim = num.scale(1 / c)
        mx, ms = prim.min_x(), prim.min_s()
        factors: list[tuple[BiPoly, int]] = []
        if mx or ms:
            prim = prim.shift_down(mx, ms)
            if mx:
                factors.append((BiPoly.x(), mx))
            if ms:
                factors.append((BiPoly.s(), ms))
        if not prim.is_constant():
            factors.append((prim, 1))
        else:
            c = c * prim.as_constant()
        return FactoredFrac(new_num.scale(1 / c), factors)

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
            self.num ** e, {f: m * e for f, m in self.den.items()}
        )

    # -- conversion --------------------------------------------------------

    def to_bifrac(self) -> BiFrac:
        den = BiPoly.one()
        for f, m in self.den.items():
            den = den * f ** m
        return BiFrac(self.num, den)

    def __str__(self):
        if not self.den:
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
