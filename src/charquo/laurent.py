"""Exact sparse arithmetic in the ring Z[q^+-1, s^+-1].

A LaurentPoly2 is a dict {(q_exp, s_exp): coeff} with no zero
coefficients; exponents may be negative.  The quantum engine works in
this ring alone: every matrix it computes is a ring matrix, with no
denominator.
"""

from __future__ import annotations

from functools import cache
from math import gcd


class ExactDivisionError(ArithmeticError):
    pass


class LaurentPoly2:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms must already be free of zero coefficients
        self.terms = terms or {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, n: int):
        return cls({(0, 0): n} if n else {})

    @classmethod
    def monomial(cls, coeff: int, eq: int = 0, es: int = 0):
        return cls({(eq, es): coeff} if coeff else {})

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return isinstance(other, LaurentPoly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return LaurentPoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly2.zero()
            return LaurentPoly2({k: v * other for k, v in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (e1, f1), c1 in a.items():
            for (e2, f2), c2 in b.items():
                k = (e1 + e2, f1 + f2)
                nv = out.get(k, 0) + c1 * c2
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, eq: int, es: int):
        """Multiply by the monomial q^eq s^es."""
        return LaurentPoly2({(e + eq, f + es): c for (e, f), c in self.terms.items()})

    def bar(self):
        """The involution q -> q^-1, s -> s^-1."""
        return LaurentPoly2({(-e, -f): c for (e, f), c in self.terms.items()})

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
        eq = min(e for e, _ in self.terms)
        es = min(f for _, f in self.terms)
        return g, eq, es

    def exact_div(self, d: "LaurentPoly2") -> "LaurentPoly2":
        """Exact quotient self / d; raises ExactDivisionError otherwise."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        if len(d.terms) == 1:
            (de, df), dc = next(iter(d.terms.items()))
            out = {}
            for (e, f), c in self.terms.items():
                if c % dc:
                    raise ExactDivisionError("coefficient not divisible")
                out[(e - de, f - df)] = c // dc
            return LaurentPoly2(out)
        rem = dict(self.terms)
        dl = max(d.terms)
        dc = d.terms[dl]
        lo = (min(self.terms)[0] - min(d.terms)[0],
              min(self.terms)[1] - min(d.terms)[1])
        out = {}
        while rem:
            rl = max(rem)
            rc = rem[rl]
            if rc % dc:
                raise ExactDivisionError("leading coefficient not divisible")
            mono = (rl[0] - dl[0], rl[1] - dl[1])
            if mono < lo:
                raise ExactDivisionError("quotient support escaped its box")
            coef = rc // dc
            out[mono] = coef
            for (e, f), c in d.terms.items():
                k = (e + mono[0], f + mono[1])
                nv = rem.get(k, 0) - coef * c
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        return LaurentPoly2(out)

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
        for (e, f), c in self.terms.items():
            t = pow(q0 if e >= 0 else qi, abs(e), r)
            t = t * pow(s0 if f >= 0 else si, abs(f), r) % r
            out = (out + c * t) % r
        return out

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, f), c in sorted(self.terms.items(), reverse=True):
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


ZERO = LaurentPoly2.zero()
ONE = LaurentPoly2.const(1)


def qs_monomial(eq: int, es: int, coeff: int = 1) -> LaurentPoly2:
    return LaurentPoly2.monomial(coeff, eq, es)


# -- q-combinatorics -------------------------------------------------------

def qnum(n: int) -> LaurentPoly2:
    """[n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        raise ValueError("q-number of a negative integer")
    return LaurentPoly2({(n - 1 - 2 * k, 0): 1 for k in range(n)})


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

