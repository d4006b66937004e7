import random

import pytest

from charquo.laurent import (ONE, ZERO, ExactDivisionError, LaurentPoly2,
                             qbinom, qfact, qnum, qs_monomial)


def rand_poly(rng, nterms=4, span=4):
    t = {}
    for _ in range(nterms):
        t[(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))] = \
            rng.randrange(-9, 10)
    return LaurentPoly2({k: v for k, v in t.items() if v})


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


def test_content_stripping():
    p = LaurentPoly2({(2, 1): 6, (0, 1): -9})
    assert p.content() == (3, 0, 1)
    assert (-p).content() == (-3, 0, 1)
    assert LaurentPoly2({(-1, 2): 4}).content() == (4, -1, 2)
    assert LaurentPoly2({}).content() == (1, 0, 0)


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
