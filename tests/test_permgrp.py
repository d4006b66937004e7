import ast
import random
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from charquo import permgrp as pg
from charquo.numutil import is_prime


def cyc(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for i, j in zip(c, c[1:]):
            p[i] = j
        p[c[-1]] = c[0]
    return p


def test_sign():
    assert pg.sign(list(range(6))) == 1
    assert pg.sign(cyc(5, (0, 1))) == -1
    assert pg.sign(cyc(7, (0, 1, 2, 3, 4, 5, 6))) == 1  # 7-cycle is even


def test_sign_homomorphism():
    rng = random.Random(4)
    for _ in range(200):
        a = list(range(9))
        b = list(range(9))
        rng.shuffle(a)
        rng.shuffle(b)
        assert pg.sign(pg.mult(a, b)) == pg.sign(a) * pg.sign(b)


def test_mult_diagram_order():
    a = cyc(3, (0, 1))
    b = cyc(3, (1, 2))
    assert pg.mult(a, b)[0] == b[a[0]]


def test_cycle_machinery():
    p = cyc(8, (0, 1, 2), (4, 5))
    assert pg.cycle_lengths(p) == [1, 1, 1, 2, 3]
    assert pg.inverse(pg.inverse(p)) == p
    assert pg.power(p, 5) == pg.mult(pg.mult(p, p), pg.mult(p, pg.mult(p, p)))
    assert pg.power(p, -1) == pg.inverse(p)
    assert pg.power(p, 6) == pg.mult(pg.power(p, 5), p)


def test_is_transitive():
    assert pg.is_transitive([cyc(5, (0, 1, 2, 3, 4))], 5)
    assert not pg.is_transitive([list(range(5))], 5)
    assert not pg.is_transitive([cyc(5, (0, 1))], 5)


def test_schreier_sims_known_orders():
    assert pg.schreier_sims([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]).order == 24
    assert pg.schreier_sims([cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))]).order == 12
    assert pg.schreier_sims([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))]).order == 4
    assert pg.schreier_sims([], 5).order == 1
    b = pg.schreier_sims([cyc(6, (0, 1, 2, 3, 4, 5))])
    assert b.order == 6
    assert b.contains(cyc(6, (0, 2, 4), (1, 3, 5)))
    assert not b.contains(cyc(6, (0, 1)))


def test_schreier_sims_bound():
    with pytest.raises(pg.OracleBoundExceeded):
        pg.schreier_sims([list(range(1, 6001)) + [0]], 6001)


def test_minimal_block_examples():
    gens = [cyc(4, (0, 1, 2, 3))]
    assert pg.minimal_block(gens, 0, 2, 4) == [(0, 2), (1, 3)]
    assert pg.minimal_block(gens, 0, 1, 4) is None
    sgens = [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))]
    for beta in range(1, 5):
        assert pg.minimal_block(sgens, 0, beta, 5) is None


def test_window_primes():
    assert pg.window_primes(7) == []
    assert 53 in pg.window_primes(100)
    assert all(n // 2 < q < n - 2 for n in (50, 100) for q in pg.window_primes(n))


def test_giant_certificate_s100():
    gens = [list(range(1, 100)) + [0], cyc(100, (0, 1))]
    cert = pg.giant_certificate(gens, 100, seed=3)
    assert isinstance(cert, pg.GiantCertificate)
    assert cert.revalidate(gens)
    cls = pg.classify_giant(gens, 100, seed=3)
    assert cls.kind == "Symmetric"
    assert cls.generator_signs == [-1, -1]  # a 100-cycle and a transposition


def test_small_window_inconclusive():
    gens = [cyc(7, (0, 1, 2, 3, 4, 5, 6))]
    out = pg.giant_certificate(gens, 7, seed=0)
    assert isinstance(out, pg.Inconclusive)
    assert "schreier" in out.reason


def test_classify_small_fallback():
    cls = pg.classify_giant([cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))], 4)
    assert cls.kind == "Alternating" and cls.order == 12
    assert cls.generator_signs == [1, 1]
    cls = pg.classify_giant([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))], 4)
    assert cls.kind == "Symmetric"
    assert cls.generator_signs == [-1, -1]


def test_classify_beyond_oracle_bound_inconclusive():
    # above ORACLE_BOUND the stabilizer chain is not tried: the failed
    # certificate search is the answer
    n = pg.ORACLE_BOUND + 1
    cls = pg.classify_giant([cyc(n, (0, 1))], n)
    assert cls.kind == "Inconclusive" and cls.order is None
    assert "not transitive" in cls.reason


def test_imprimitive_wreath_inconclusive():
    # 50 blocks of size 2 inside degree 100: no prime cycle above n/2
    swap = cyc(100, (0, 1))
    rot = list(range(2, 100)) + [0, 1]
    cls = pg.classify_giant([swap, rot], 100, seed=1, budget=120)
    assert cls.kind == "Inconclusive"


def _wreath_s2_s3():
    # S2 wr S3 on 6 points: block swaps and block rotation
    return [cyc(6, (0, 1)), cyc(6, (2, 3)), cyc(6, (4, 5)),
            cyc(6, (0, 2, 4), (1, 3, 5))]


def test_corpus_agreement():
    corpus = []
    for n in range(3, 9):
        corpus.append((f"S{n}", [cyc(n, tuple(range(n))), cyc(n, (0, 1))], n))
        corpus.append((f"A{n}", [cyc(n, (0, 1, 2)),
                                 cyc(n, tuple(range(n))) if n % 2 else
                                 cyc(n, tuple(range(1, n)))], n))
        corpus.append((f"C{n}", [cyc(n, tuple(range(n)))], n))
    corpus.append(("Klein4", [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))], 4))
    corpus.append(("S2wrS3", _wreath_s2_s3(), 6))
    corpus.append(("D6", [cyc(6, tuple(range(6))), [(6 - i) % 6 for i in range(6)]], 6))
    corpus.append(("S12", [cyc(12, tuple(range(12))), cyc(12, (0, 1))], 12))
    corpus.append(("A12", [cyc(12, (0, 1, 2)), cyc(12, tuple(range(1, 12)))], 12))
    assert len(corpus) >= 20
    for name, gens, n in corpus:
        order = pg.schreier_sims(gens, n).order
        cls = pg.classify_giant(gens, n, seed=5)
        if cls.kind == "Symmetric":
            assert order == factorial(n), name
        elif cls.kind == "Alternating":
            assert 2 * order == factorial(n), name
        else:
            assert order not in (factorial(n), factorial(n) // 2), name


def test_bsgs_order_divisibility():
    # |G| divides n! and n divides |G| for transitive G
    for gens, n in (([cyc(6, tuple(range(6)))], 6),
                    ([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))], 5),
                    (_wreath_s2_s3(), 6)):
        order = pg.schreier_sims(gens, n).order
        assert factorial(n) % order == 0
        if pg.is_transitive(gens, n):
            assert order % n == 0


def test_certificate_revalidation_tamper():
    gens = [list(range(1, 100)) + [0], cyc(100, (0, 1))]
    cert = pg.giant_certificate(gens, 100, seed=9)
    bad = pg.GiantCertificate(cert.word, 4, cert.n)  # 4 is not prime
    assert not bad.revalidate(gens)


# -- array path against the list reference ---------------------------------

def _ref_cycle_lengths(p):
    seen, out = [False] * len(p), []
    for i in range(len(p)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length:
            out.append(length)
    return sorted(out)


def _ref_sign(p):
    return -1 if (len(p) - len(_ref_cycle_lengths(p))) % 2 else 1


def _ref_is_transitive(gens, n):
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return n <= 1 or (bool(gens) and len(seen) == n)


def _ref_word_perm(word, gens, n):
    out = pg.id_perm(n)
    for idx, e in word:
        out = pg.mult(out, gens[idx] if e == 1 else pg.inverse(gens[idx]))
    return out


def _perm_cases(n, rng):
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    cases = [list(range(n)), cyc(n, tuple(range(n))), shuffled]
    if n >= 4:  # fixed points, a transposition and a longer cycle together
        cases.append(cyc(n, (0, n - 1), tuple(range(1, n // 2 + 1))))
    return cases


@pytest.mark.parametrize("n", [1, 2, 7, 100, 5000])
def test_array_and_list_inputs_agree(n):
    rng = random.Random(n)
    cases = _perm_cases(n, rng)
    for p in cases:
        want = _ref_cycle_lengths(p)
        for arg in (p, np.array(p, dtype=np.int64)):
            assert pg.cycle_lengths(arg) == want
            assert pg.sign(arg) == _ref_sign(p)
    half = n // 2  # two orbits {0..half-1}, {half..n-1} when n >= 2
    intransitive = [cyc(n, tuple(range(half))) if half > 1 else list(range(n)),
                    cyc(n, tuple(range(half, n))) if n - half > 1 else list(range(n))]
    for gens in (cases, cases[:1], cases[1:2], intransitive, []):
        want = _ref_is_transitive(gens, n)
        assert pg.is_transitive(gens, n) == want
        assert pg.is_transitive([np.array(g, dtype=np.int64) for g in gens], n) == want
    assert not pg.is_transitive(intransitive, n) or n == 1

    word = [(rng.randrange(len(cases)), rng.choice((1, -1))) for _ in range(40)]
    ref = _ref_word_perm(word, cases, n)
    arrays = [np.array(g, dtype=np.int64) for g in cases]
    cls = _ref_cycle_lengths(ref)
    for q in sorted(set(cls)) + [n // 2 + 1]:
        cert = pg.GiantCertificate(word, q, n)
        assert cert.permutation(cases).tolist() == ref
        want = (is_prime(q) and n / 2 < q < n - 2 and q in cls)
        assert cert.revalidate(cases) == want
        assert cert.revalidate(arrays) == want


def test_window_primes_sieve_matches_is_prime():
    primes = [q for q in range(3001) if is_prime(q)]
    for n in range(3001):
        assert pg.window_primes(n) == [q for q in primes if n / 2 < q < n - 2], n


def test_certificate_check_survives_optimize():
    # revalidation in giant_certificate must be a check that raises, not an assert
    tree = ast.parse(Path(pg.__file__).read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_failed_revalidation_raises(monkeypatch):
    gens = [list(range(1, 100)) + [0], cyc(100, (0, 1))]
    monkeypatch.setattr(pg.GiantCertificate, "revalidate", lambda self, gens: False)
    with pytest.raises(pg.CertificateError, match=r"q = \d+, n = 100"):
        pg.giant_certificate(gens, 100, seed=3)
