import random
import signal
from contextlib import contextmanager

import pytest

from charquo import laurent
from charquo.laurent import (ONE, ZERO, ExactDivisionError, LaurentPoly2, dot,
                             qbinom, qfact, qnum, qs_monomial, unpack)


def rand_poly(rng, nterms=4, span=4):
    t = {}
    for _ in range(nterms):
        t[(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))] = \
            rng.randrange(-9, 10)
    return LaurentPoly2.from_terms(t)


def test_ring_axioms_sample():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO


def test_bar_involution():
    rng = random.Random(1)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
    assert qs_monomial(3, 0).bar() == qs_monomial(-3, 0)
    assert qnum(4).bar() == qnum(4)  # q-numbers are bar-invariant


def test_exact_division():
    rng = random.Random(2)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ExactDivisionError):
        (qs_monomial(1, 0) + 1).exact_div(qs_monomial(1, 0) - 1)
    with pytest.raises(ExactDivisionError):
        LaurentPoly2.const(3).exact_div(LaurentPoly2.const(2))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)
    # quotient terms q s^-1, q s^-2, ... descend forever at a fixed
    # q-exponent unless the s-exponent is bounded too
    q, s = qs_monomial(1, 0), qs_monomial(0, 1)
    with _seconds(10), pytest.raises(ExactDivisionError, match="outside"):
        (q + 1).exact_div(1 + qs_monomial(0, -1))
    with _seconds(10), pytest.raises(ExactDivisionError):
        (s ** 5 + 1).exact_div(s + q * s)
    # steps of 2^30 - 1 in f: checked from the first term, before any
    # remainder key could leave |f| < 2^31
    far = 1 + qs_monomial(0, 1 - 2 ** 30)
    with _seconds(10), pytest.raises(ExactDivisionError, match=r"q\^1 s\^0 "):
        (q + 1 + qs_monomial(-1, 0) + qs_monomial(-2, 0)).exact_div(far)
    assert (q ** 7 - 1).exact_div(q - 1) == sum((q ** k for k in range(7)), ZERO)


@contextmanager
def _seconds(n):
    """Fail, rather than hang, if the block runs longer than n seconds."""
    def expire(*_):
        raise TimeoutError(f"still running after {n} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(n)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_content_stripping():
    p = LaurentPoly2.from_terms({(2, 1): 6, (0, 1): -9})
    assert p.content() == (3, 0, 1)
    assert (-p).content() == (-3, 0, 1)
    assert LaurentPoly2.from_terms({(-1, 2): 4}).content() == (4, -1, 2)
    assert LaurentPoly2.from_terms({}).content() == (1, 0, 0)


def test_qnum_qfact_qbinom():
    assert qnum(0) == ZERO
    assert qnum(1) == ONE
    assert qnum(2) == qs_monomial(1, 0) + qs_monomial(-1, 0)
    assert qfact(3) == qnum(3) * qnum(2)
    assert qbinom(2, 1) == qnum(2)
    for n in range(8):
        for k in range(n + 1):
            assert qbinom(n, k) == qfact(n).exact_div(qfact(k) * qfact(n - k))
            assert qbinom(n, k) == qbinom(n, n - k)


def test_eval_mod():
    p = qs_monomial(2, 0) * 3 + qs_monomial(0, -1) * 2 - 5
    r = 101
    q0, s0 = 7, 9
    want = (3 * pow(7, 2, r) + 2 * pow(9, r - 2, r) - 5) % r
    assert p.eval_mod(q0, s0, r) == want
    with pytest.raises(ZeroDivisionError):
        p.eval_mod(0, 1, r)


def test_repr_smoke():
    assert repr(ZERO) == "0"
    assert "q" in repr(qnum(2))


def _ref_mul(a, b):
    """a * b over (e, f) tuples, apart from the packed kernel."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            (ea, fa), (eb, fb) = unpack(ka), unpack(kb)
            out[ea + eb, fa + fb] = out.get((ea + eb, fa + fb), 0) + ca * cb
    return LaurentPoly2.from_terms(out)


def test_packing_bound_refused_never_aliased():
    with pytest.raises(OverflowError, match=r"q\^0 s\^1073741824 "):
        LaurentPoly2.from_terms({(0, 2 ** 30): 1})
    with pytest.raises(OverflowError, match=r"q\^2 s\^-1073741824 "):
        qs_monomial(2, -2 ** 30)
    top = qs_monomial(1, 2 ** 30 - 1)
    # as a key, q^1 s^(2^31 - 2) equals q^2 s^(-2^31 - 2): refused, not aliased
    with pytest.raises(OverflowError, match=r"q\^1 s\^2147483646 "):
        top * qs_monomial(0, 2 ** 30 - 1)
    with pytest.raises(OverflowError, match=r"q\^3 s\^1073741824 "):
        top.shift(2, 1)
    with pytest.raises(OverflowError):
        (top + 1) ** 2
    assert top * qs_monomial(0, 1 - 2 ** 30) == qs_monomial(1, 0)
    # the q-exponent has no bound; keys past int64 take the dict loop
    big = qs_monomial(2 ** 40, 1) * qs_monomial(2 ** 40, -1)
    assert big == qs_monomial(2 ** 41, 0) and repr(big) == f"q^{2 ** 41}"
    rng = random.Random(7)
    a = rand_poly(rng, 30).shift(2 ** 62, 0)
    b = rand_poly(rng, 30)
    assert len(a.terms) * len(b.terms) >= laurent.NP_PAIRS
    assert a * b == _ref_mul(a, b) and (a * b).shift(-2 ** 62, 0) == _ref_mul(
        a.shift(-2 ** 62, 0), b)


def test_numpy_product_matches_dict_loop(monkeypatch):
    calls = []

    def spy(pairs):
        out = real(pairs)
        calls.append(out is not None)
        return out
    real = laurent._dot_np
    monkeypatch.setattr(laurent, "_dot_np", spy)
    rng = random.Random(3)
    for trial in range(60):
        a, b = rand_poly(rng, rng.randrange(15, 40)), rand_poly(rng, rng.randrange(15, 40))
        c, d = rand_poly(rng, 20), rand_poly(rng, 20)
        if trial % 3:  # coefficients near 2^40: within int64 against small ones
            a, c = a * (2 ** 40 + 1), c * -(2 ** 39)
        if trial % 3 == 2:  # ... and past it against each other: the dict loop
            b = b * (2 ** 40 - 3)
        want = _ref_mul(a, b) + _ref_mul(c, d)
        calls.clear()
        got = dot([(a, b), (c, d)])
        assert got == want and calls == [trial % 3 != 2]
        calls.clear()
        assert dot([(a, b), (-a, b), (c, d), (d, -c)]).is_zero()  # cancels to zero
        assert calls == [trial % 3 != 2]
        with monkeypatch.context() as m:
            m.setattr(laurent, "NP_PAIRS", 10 ** 9)
            calls.clear()
            assert dot([(a, b), (c, d)]).terms == got.terms and not calls
    # a coefficient past int64 falls back before any array is made
    calls.clear()
    a, b = rand_poly(rng, 30), rand_poly(rng, 30)
    assert len(a.terms) * len(b.terms) >= laurent.NP_PAIRS
    for big in (a * 2 ** 64, a + qs_monomial(9, 9, -2 ** 64)):
        want = _ref_mul(big, b) + _ref_mul(b, b)
        assert dot([(b, b), (big, b)]) == want and dot([(big, b), (b, b)]) == want
    assert calls == [False] * 4
