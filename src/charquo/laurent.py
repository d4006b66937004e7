"""Exact sparse arithmetic in Z[q^+-1, s^+-1], the quantum engine's one ring.

A LaurentPoly2 maps the int keys k = e * 2^32 + f (pack, unpack) of its
monomials q^e s^f to nonzero coefficients.  Key order is lex order, so
exponents add as ints and max(terms) is the leading term.  Each
polynomial carries a bound sb on |f|, checked against 2^30 wherever
terms are made: no sum of two keys aliases.  Products run through dot.
"""

from __future__ import annotations

from functools import cache
from math import gcd

import numpy as np

SB = 1 << 30    # |f| < SB for every stored term
_I64 = 1 << 62  # keys below this in size sum within int64
_H, _M = 1 << 31, (1 << 32) - 1  # the key k has f = ((k + _H) & _M) - _H
NP_PAIRS = 300  # measured on the qrep suite: numpy is slower below ~200 pairs


class ExactDivisionError(ArithmeticError):
    pass


def pack(e: int, f: int) -> int:
    """The key of q^e s^f; OverflowError if |f| >= 2^30."""
    if -SB < f < SB:
        return (e << 32) + f
    raise OverflowError(f"monomial q^{e} s^{f} outside the packing bound |s-exponent| < 2^30")


def unpack(k: int):
    """(e, f) of the key k."""
    f = ((k + _H) & _M) - _H
    return (k - f) >> 32, f


def dot(pairs) -> LaurentPoly2:
    """sum of a * b over a sequence of pairs (a, b) of LaurentPoly2: every
    term product added into one dict, or from NP_PAIRS term pairs on
    summed in numpy."""
    n = sb = 0
    for a, b in pairs:
        n += len(a.terms) * len(b.terms)
        if a.sb + b.sb > sb:
            sb = a.sb + b.sb
    if n < NP_PAIRS or (out := _dot_np(pairs)) is None:
        out = {}
        get = out.get
        for a, b in pairs:
            a, b = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
            bi = b.items()
            for k1, c1 in a.items():
                for k2, c2 in bi:
                    k = k1 + k2
                    v = get(k, 0) + c1 * c2
                    if v:
                        out[k] = v
                    else:
                        del out[k]
    return LaurentPoly2(out, sb)


def _dot_np(pairs):
    """dot's terms: a stable sort of the outer key sums, np.add.reduceat
    of the coefficient products; None, before a pair's arrays are made,
    once int64 might not hold every key, product and partial sum."""
    keys, coeffs, bound = [], [], 0
    for a, b in pairs:
        if a.terms and b.terms:
            a, b = a.terms, b.terms
            if not (-_I64 < min(a) and max(a) < _I64 and -_I64 < min(b) and max(b) < _I64):
                return None
            bound += len(a) * len(b) * max(map(abs, a.values())) * max(map(abs, b.values()))
            if bound >> 63:
                return None
            ka, kb, ca, cb = (np.fromiter(t, np.int64, len(t)) for t in (a, b, a.values(), b.values()))
            keys.append(np.add.outer(ka, kb).ravel())
            coeffs.append(np.multiply.outer(ca, cb).ravel())
    keys, coeffs = np.concatenate(keys), np.concatenate(coeffs)
    order = keys.argsort(kind="stable")
    keys, coeffs = keys[order], coeffs[order]
    # a difference, not !=: numpy's comparison kernel pages in twice the code
    first = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    sums = np.add.reduceat(coeffs, first)
    nz = np.flatnonzero(sums)
    return dict(zip(keys[first[nz]].tolist(), sums[nz].tolist()))


class LaurentPoly2:
    __slots__ = ("terms", "sb")

    def __init__(self, terms, sb):
        # terms packed, no coefficient zero; |f| <= sb, read exactly from SB on
        if sb >= SB and terms:
            for k in terms:
                pack(*unpack(k))  # OverflowError at a term past SB
            sb = max(abs(unpack(k)[1]) for k in terms)
        self.terms = terms
        self.sb = sb

    @classmethod
    def from_terms(cls, terms):
        """sum c q^e s^f over {(e, f): c}: the one constructor from exponents."""
        return cls({pack(e, f): c for (e, f), c in terms.items() if c},
                   max((abs(f) for e, f in terms), default=0))

    @classmethod
    def const(cls, n: int):
        return cls({0: n} if n else {}, 0)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return isinstance(other, LaurentPoly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign):
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        out = dict(self.terms)
        get = out.get
        for k, v in other.terms.items():
            v = get(k, 0) + sign * v
            if v:
                out[k] = v
            else:
                del out[k]
        return LaurentPoly2(out, self.sb if self.sb > other.sb else other.sb)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return LaurentPoly2.const(other) - self

    def __neg__(self):
        return LaurentPoly2({k: -v for k, v in self.terms.items()}, self.sb)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly2({k: v * other for k, v in self.terms.items()}, self.sb)
        return dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, eq: int, es: int):
        """Multiply by the monomial q^eq s^es."""
        m = pack(eq, es)
        return LaurentPoly2({k + m: c for k, c in self.terms.items()}, self.sb + abs(es))

    def bar(self):
        """The involution q -> q^-1, s -> s^-1."""
        return LaurentPoly2({-k: c for k, c in self.terms.items()}, self.sb)

    # -- content and division ----------------------------------------------

    def content(self):
        """(integer gcd with the sign of the lex-leading coeff, min q-exp,
        min s-exp); the unit-content normal form divides these out."""
        if not self.terms:
            return 1, 0, 0
        g = 0
        for v in self.terms.values():
            g = gcd(g, abs(v))
        if self.terms[max(self.terms)] < 0:
            g = -g
        eq = unpack(min(self.terms))[0]
        es = min(unpack(k)[1] for k in self.terms)
        return g, eq, es

    def exact_div(self, d: "LaurentPoly2") -> "LaurentPoly2":
        """Exact quotient self / d, else ExactDivisionError.  An exact
        quotient's terms lie in a box: keys from min(self) - min(d) up,
        s-exponents between the differences of self's and d's least and
        greatest.  Quotient terms strictly decrease from max(self) -
        max(d), so checking each against the box ends the loop, and
        inside it every remainder term keeps an s-exponent of self's:
        no key aliases."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        a, dt = self.terms, d.terms
        if len(dt) == 1:
            dk, dc = next(iter(dt.items()))
            out = {}
            for k, c in a.items():
                if c % dc:
                    raise ExactDivisionError("coefficient not divisible")
                out[k - dk] = c // dc
            return LaurentPoly2(out, self.sb + d.sb)
        rem = dict(a)
        get = rem.get
        dl = max(dt)
        dc = dt[dl]
        ditems = list(dt.items())
        fa, fd = [(k + _H) & _M for k in a], [(k + _H) & _M for k in dt]  # f + _H
        flo, fhi = min(fa) - min(fd), max(fa) - max(fd)
        lo = min(a) - min(dt)
        out = {}
        while rem:
            rl = max(rem)
            rc = rem[rl]
            if rc % dc:
                raise ExactDivisionError("leading coefficient not divisible")
            mono = rl - dl
            if mono < lo or not flo <= ((mono + _H) & _M) - _H <= fhi:
                raise ExactDivisionError("quotient term q^{} s^{} outside the exponent box "
                                         "of an exact quotient".format(*unpack(mono)))
            coef = rc // dc
            out[mono] = coef
            for k, c in ditems:
                k += mono
                v = get(k, 0) - coef * c
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return LaurentPoly2(out, self.sb + d.sb)

    # -- evaluation ---------------------------------------------------------

    def eval_mod(self, q0: int, s0: int, r: int) -> int:
        """Value at (q0, s0) over F_r; q0, s0 must be invertible mod r."""
        q0 %= r
        s0 %= r
        if q0 == 0 or s0 == 0:
            raise ZeroDivisionError("q0, s0 must be invertible")
        qi = pow(q0, r - 2, r)
        si = pow(s0, r - 2, r)
        out = 0
        for k, c in self.terms.items():
            e, f = unpack(k)
            t = pow(q0 if e >= 0 else qi, abs(e), r)
            t = t * pow(s0 if f >= 0 else si, abs(f), r) % r
            out = (out + c * t) % r
        return out

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, c in sorted(self.terms.items(), reverse=True):
            e, f = unpack(k)
            mono = []
            if e:
                mono.append(f"q^{e}" if e != 1 else "q")
            if f:
                mono.append(f"s^{f}" if f != 1 else "s")
            m = "*".join(mono)
            if not m:
                bits.append(f"{c:+d}")
            elif c == 1:
                bits.append(f"+{m}")
            elif c == -1:
                bits.append(f"-{m}")
            else:
                bits.append(f"{c:+d}*{m}")
        out = " ".join(bits)
        return out[1:] if out.startswith("+") else out


ZERO = LaurentPoly2({}, 0)
ONE = LaurentPoly2.const(1)


def qs_monomial(eq: int, es: int, coeff: int = 1) -> LaurentPoly2:
    return LaurentPoly2.from_terms({(eq, es): coeff})


# -- q-combinatorics -------------------------------------------------------

def qnum(n: int) -> LaurentPoly2:
    """[n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        raise ValueError("q-number of a negative integer")
    return LaurentPoly2.from_terms({(n - 1 - 2 * k, 0): 1 for k in range(n)})


def qfact(n: int) -> LaurentPoly2:
    out = ONE
    for k in range(2, n + 1):
        out = out * qnum(k)
    return out


@cache
def qbinom(n: int, k: int) -> LaurentPoly2:
    """Gaussian binomial via the q-Pascal recurrence (division-free);
    memoised, as no LaurentPoly2 is changed in place."""
    if k < 0 or k > n:
        return ZERO
    row = [ONE]
    for t in range(n):
        new = [ONE]
        for m in range(1, t + 1):
            new.append(row[m].shift(m, 0) + row[m - 1].shift(m - t - 1, 0))
        new.append(ONE)
        row = new
    return row[k]
