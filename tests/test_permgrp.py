import ast
import itertools
import random
import re
import sys
import threading
from math import factorial, isqrt
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


def _closure(gens, n):
    """Every element of <gens>, as tuples, by breadth-first search."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        images = {tuple(s[i] for i in g) for g in frontier for s in gens}
        frontier = list(images - seen)
        seen |= images
    return seen


def test_schreier_sims_matches_closure():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(0, 3)):
            g = list(range(n))
            rng.shuffle(g)
            gens.append(g)
        group = _closure(gens, n)
        bsgs = pg.schreier_sims(gens, n)
        assert bsgs.order == len(group), gens
        for p in itertools.permutations(range(n)):
            assert bsgs.contains(list(p)) == (p in group), (gens, p)


def _psl2(q):
    # PSL(2, q) on the projective line 0..q-1, infinity = q:
    # generated by x -> x + 1 and x -> -1/x
    shift = [(x + 1) % q for x in range(q)] + [q]
    flip = [q if x == 0 else -pow(x, q - 2, q) % q for x in range(q)] + [0]
    return [shift, flip]


@pytest.mark.parametrize("q, order", [(13, 1092), (97, 456288)])
def test_schreier_sims_psl2(q, order):
    bsgs = pg.schreier_sims(_psl2(q))
    assert bsgs.order == order == q * (q * q - 1) // 2
    square = 4
    non_square = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    assert bsgs.contains([square * x % q for x in range(q)] + [q])
    assert not bsgs.contains([non_square * x % q for x in range(q)] + [q])


def test_schreier_sims_s50_a50():
    n = 50
    s50 = pg.schreier_sims([cyc(n, tuple(range(n))), cyc(n, (0, 1))])
    a50 = pg.schreier_sims([cyc(n, (0, 1, 2)), cyc(n, tuple(range(1, n)))])
    assert s50.order == factorial(n)
    assert 2 * a50.order == factorial(n)


def test_schreier_sims_bound():
    n = pg.ORACLE_BOUND + 1
    with pytest.raises(pg.OracleBoundExceeded):
        pg.schreier_sims([list(range(1, n)) + [0]], n)


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
    assert cls.order == 2 ** 50 * 50  # C2 wr C50


def _wreath_c2_c3():
    # C2 wr C3 on 6 points: block swaps and a block rotation (a 3-cycle
    # of blocks, so the top group is C3, not S3)
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
    corpus.append(("C2wrC3", _wreath_c2_c3(), 6))
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
                    (_wreath_c2_c3(), 6)):
        order = pg.schreier_sims(gens, n).order
        assert factorial(n) % order == 0
        if pg.is_transitive(gens, n):
            assert order % n == 0
    assert pg.schreier_sims(_wreath_c2_c3(), 6).order == 2 ** 3 * 3


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


def _ref_cycle_labels(p):
    """The least point of each point's cycle."""
    out = [None] * len(p)
    for i in range(len(p)):  # i is the least point of its cycle when first reached
        j = i
        while out[j] is None:
            out[j] = i
            j = p[j]
    return out


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


def _bufs(n, k):
    """k int32 arrays of n entries, the buffers of the word kernels."""
    return [np.empty(n, dtype=np.int32) for _ in range(k)]


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


def test_reduced_word_perm_matches_list_composition():
    # _word_perm cancels g g^-1, g^-1 g and, for an involution, g g
    # before composing; the product must equal letter-by-letter list
    # composition with mult and inverse
    rng = random.Random(25)
    for n in (2, 5, 12, 31):
        gens = []
        for _ in range(3):
            g = list(range(n))
            rng.shuffle(g)
            gens.append(g)
        gens.append(cyc(n, *[(k, k + 1) for k in range(0, n - 1, 2)]))  # an involution
        arrays = [pg.check_perm(g, n) for g in gens]
        invs = pg._inverses(arrays)
        assert invs[3] is arrays[3] and pg.mult(gens[3], gens[3]) == pg.id_perm(n)
        for _ in range(40):
            word = []
            for _ in range(rng.randint(1, 30)):
                letter = (rng.randrange(len(gens)), rng.choice((1, -1)))
                word.append(letter)
                if rng.random() < 0.4:  # a run that cancels: g g^-1, or g g for the involution
                    i, e = letter
                    word += [(i, e if i == 3 else -e), letter] * rng.randint(1, 3)
            ref = _ref_word_perm(word, gens, n)
            assert pg._word_perm(word, arrays, invs, *_bufs(n, 2)).tolist() == ref
            assert pg.GiantCertificate(word, 2, n).permutation(gens).tolist() == ref
    # words that cancel to nothing give the identity
    for word in ([(0, 1), (1, -1), (1, 1), (0, -1)], [(3, 1), (3, 1)], [(3, -1), (3, 1)],
                 [(2, -1), (3, 1), (3, -1), (2, 1)], []):
        assert pg._word_perm(word, arrays, invs, *_bufs(n, 2)).tolist() == pg.id_perm(n)


# -- the boundary: every entry refuses a non-permutation -------------------

GOOD5 = [1, 2, 3, 4, 0]  # a 5-cycle
BAD5 = [  # (a non-permutation of degree 5, the defect its refusal names)
    ([1, 2, 3, 4, 5], "entry out of range: 5 at point 4, degree 5"),
    ([1, 2, 3, 4, -1], "entry out of range: -1 at point 4, degree 5"),
    ([1, 2, 3, 4, 1], "repeated image: 1 at points 0 and 4"),
    ([1, 2, 3, 0], "wrong length: 4 entries for degree 5"),
]
# (name, a call on a generator g of degree 5, whether the degree is
# given apart from g; where it is not, a shorter g is a permutation)
ENTRIES = [
    ("cycle_lengths", lambda g: pg.cycle_lengths(g), False),
    ("sign", lambda g: pg.sign(g), False),
    ("is_transitive", lambda g: pg.is_transitive([GOOD5, g], 5), True),
    ("giant_certificate", lambda g: pg.giant_certificate([GOOD5, g], 5), True),
    ("classify_giant", lambda g: pg.classify_giant([GOOD5, g], 5), True),
    ("GiantCertificate.permutation",
     lambda g: pg.GiantCertificate([(0, 1), (1, -1)], 3, 5).permutation([GOOD5, g]), True),
    ("GiantCertificate.revalidate",
     lambda g: pg.GiantCertificate([(0, 1), (1, -1)], 3, 5).revalidate([GOOD5, g]), True),
    ("schreier_sims", lambda g: pg.schreier_sims([GOOD5, g], 5), True),
    ("BSGS.contains", lambda g: pg.schreier_sims([GOOD5]).contains(g), True),
]
FORMS = {"list": list, "int64": lambda g: np.array(g, dtype=np.int64),
         "int32": lambda g: np.array(g, dtype=np.int32)}


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
@pytest.mark.parametrize("call, degree_given", [e[1:] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
def test_entries_refuse_non_permutations(call, degree_given, form):
    # each public entry checks what it is given before any kernel runs:
    # a repeated image no longer yields wrong cycle lengths, and an
    # entry out of range never reaches an unchecked gather
    call(form(GOOD5))
    for bad, defect in BAD5:
        if degree_given or len(bad) == 5:
            with pytest.raises(ValueError, match=re.escape(defect)):
                call(form(bad))


def test_check_perm_names_each_defect():
    assert pg.check_perm([]).tolist() == []
    same = np.array(GOOD5, dtype=np.int32)
    assert pg.check_perm(same, 5) is same
    for bad, defect in [([0.0, 1.0], "entries of dtype float64 are not integers"),
                        ([True, False], "entries of dtype bool are not integers"),
                        (np.array([0, 2 ** 40]), "entry out of range: 1099511627776 at point 1"),
                        ([0], "degree 2147483648 is not below 2^31")]:
        with pytest.raises(ValueError, match=re.escape(defect)):
            pg.check_perm(bad, 2 ** 31 if len(bad) == 1 else None)


def test_revalidate_rejects_wrong_q_after_reduction():
    # an involution among the generators: the reduced product still
    # decides revalidation exactly
    gens = [list(range(1, 100)) + [0], cyc(100, (0, 1)),
            cyc(100, *[(k, 99 - k) for k in range(50)])]
    cert = pg.giant_certificate(gens, 100, seed=9)
    assert isinstance(cert, pg.GiantCertificate) and cert.revalidate(gens)
    lengths = set(_ref_cycle_lengths(_ref_word_perm(cert.word, gens, 100)))
    assert cert.q in lengths
    wrong = next(q for q in pg.window_primes(100) if q not in lengths)
    assert not pg.GiantCertificate(cert.word, wrong, 100).revalidate(gens)
    padded = [cert.word[0], (2, 1), (2, 1), (1, 1), (1, -1)] + cert.word[1:]
    assert pg.GiantCertificate(padded, cert.q, 100).revalidate(gens)


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


def test_int32_arrays_are_used_as_given(monkeypatch):
    # an int32 generator is taken as it is: classify_giant hands the
    # very arrays it was given to sign and to every word composition,
    # so it makes no wider copy; lists and int64 arrays become int32
    n = 100
    gens = [np.array(list(range(1, n)) + [0], dtype=np.int32),
            np.array(cyc(n, (0, 1)), dtype=np.int32)]
    assert all(pg.check_perm(g, n) is g for g in gens)
    for other in (cyc(n, (0, 1)), np.array(cyc(n, (0, 1)), dtype=np.int64)):
        assert pg.check_perm(other, n).dtype == np.int32
    used = []
    sign, word_perm = pg.sign, pg._word_perm
    monkeypatch.setattr(pg, "sign", lambda g: used.append(g) or sign(g))
    monkeypatch.setattr(pg, "_word_perm", lambda word, gs, invs, *bufs:
                        used.extend(gs) or word_perm(word, gs, invs, *bufs))
    cls = pg.classify_giant(gens, n, seed=9)
    assert cls.kind == "Symmetric" and cls.certificate is not None
    assert len(used) > len(gens) and all(any(g is h for h in gens) for g in used)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33])
def test_int32_int64_and_list_inputs_agree(n):
    # the same cycle lengths, signs, certificates and stabilizer-chain
    # orders from every input form; the sizes straddle powers of two,
    # where the last round of cycle labelling skips squaring f
    rng = random.Random(300 + n)
    cases = _perm_cases(n, rng)
    forms = [cases, [np.array(g, dtype=np.int64) for g in cases],
             [np.array(g, dtype=np.int32) for g in cases]]
    for k, p in enumerate(cases):
        assert [pg.cycle_lengths(f[k]) for f in forms] == [_ref_cycle_lengths(p)] * 3
        assert [pg.sign(f[k]) for f in forms] == [_ref_sign(p)] * 3
    word = [(rng.randrange(len(cases)), rng.choice((1, -1))) for _ in range(30)]
    ref = _ref_word_perm(word, cases, n)
    q = max(_ref_cycle_lengths(ref))
    for f in forms:
        perm = pg.GiantCertificate(word, q, n).permutation(f)
        assert perm.dtype == np.int32 and perm.tolist() == ref
    assert len({pg.GiantCertificate(word, q, n).revalidate(f) for f in forms}) == 1
    assert len({pg.schreier_sims(f, n).order for f in forms}) == 1
    assert pg.schreier_sims(forms[2], n).contains(np.array(ref, dtype=np.int32))


# -- the two-worker search against a one-thread reference ------------------

S100 = [list(range(1, 100)) + [0], cyc(100, (0, 1))]
S100_INVOLUTION = S100 + [cyc(100, *[(k, 99 - k) for k in range(50)])]


def _ref_draws(gens, n, seed):
    """One thread, lists only: each word drawn from random.Random(seed)
    in turn, with its window prime (None where it has none)."""
    rng = random.Random(seed)
    while True:
        word = pg._random_word(len(gens), rng)
        lengths = _ref_cycle_lengths(_ref_word_perm(word, gens, n))
        yield word, next((q for q in lengths if is_prime(q) and n / 2 < q < n - 2), None)


def _ref_first_hit(gens, n, seed, budget=pg.WORD_BUDGET):
    """(draw index, word, q) of the first hit among budget draws, or None."""
    draws = itertools.islice(_ref_draws(gens, n, seed), budget)
    return next(((i, w, q) for i, (w, q) in enumerate(draws) if q is not None), None)


@pytest.mark.parametrize("gens", [S100, S100_INVOLUTION], ids=["s100", "involution"])
def test_search_matches_one_thread_reference(gens):
    raced = 0
    for seed in range(40):
        ref = _ref_first_hit(gens, 100, seed)
        if ref is not None:  # the next word hits too: the two race
            after = next(itertools.islice(_ref_draws(gens, 100, seed), ref[0] + 1, None))
            raced += after[1] is not None
        for budget in (1, 2, pg.WORD_BUDGET):
            got = pg.giant_certificate(gens, 100, seed=seed, budget=budget)
            if ref is None or ref[0] >= budget:
                assert isinstance(got, pg.Inconclusive), (seed, budget)
            else:
                assert (got.word, got.q) == ref[1:], (seed, budget)
    assert raced >= 1


def test_lower_word_wins_when_a_later_one_finishes_first(monkeypatch):
    # words 0 and 1 both hit; word 0's test is held back until word 1
    # has hit, and the certificate is still word 0's
    seed = next(s for s in range(200)
                if all(q is not None for _, q in itertools.islice(_ref_draws(S100, 100, s), 2)))
    draws, later_hit = [], threading.Event()
    random_word, window_cycle = pg._random_word, pg._window_cycle

    def drawn(n_gens, rng):
        draws.append(random_word(n_gens, rng))
        return draws[-1]

    def held(word, *args):
        if word is draws[0]:
            assert later_hit.wait(10)
        q = window_cycle(word, *args)
        if q is not None and word is not draws[0]:
            later_hit.set()
        return q

    monkeypatch.setattr(pg, "_random_word", drawn)
    monkeypatch.setattr(pg, "_window_cycle", held)
    cert = pg.giant_certificate(S100, 100, seed=seed)
    assert later_hit.is_set() and len(draws) == 2
    assert (0, cert.word, cert.q) == _ref_first_hit(S100, 100, seed)


def test_window_cycle_reads_the_long_cycle_off_the_median():
    # the buffered composition and labelling against the list reference,
    # on sizes straddling powers of two and long cycles of every length
    rng = random.Random(33)
    for n in (8, 9, 16, 17, 31, 100):
        gens = [cyc(n, tuple(range(n))), cyc(n, (0, 1))]
        for length in range(1, n + 1):
            pts = rng.sample(range(n), n)
            gens.append(cyc(n, tuple(pts[:length])))
        arrays = [np.array(g, dtype=np.int32) for g in gens]
        invs = pg._inverses(arrays)
        primes = set(pg.window_primes(n))
        for _ in range(60):
            word = [(rng.randrange(len(gens)), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 4))]
            ref = _ref_word_perm(word, gens, n)
            bufs = _bufs(n, 3)
            assert pg._word_perm(word, arrays, invs, *bufs[:2]).tolist() == ref
            q = pg._window_cycle(word, arrays, invs, primes, *bufs)
            assert q == next((c for c in _ref_cycle_lengths(ref) if c in primes), None)
            f = np.array(ref, dtype=np.int32)
            assert pg._cycle_labels(f, *bufs[:2]).tolist() == _ref_cycle_labels(ref)


def _blocks(n, lengths, rng):
    """A permutation of degree n whose cycles have the given lengths and
    hold consecutive points, the first from point 0, each in a shuffled
    order; the points after them are fixed.  Probes from the least
    unmarked point then meet the cycles in the order given."""
    cycles, start = [], 0
    for length in lengths:
        pts = list(range(start, start + length))
        rng.shuffle(pts)
        cycles.append(tuple(pts))
        start += length
    return cyc(n, *cycles)


def _spy(monkeypatch, name):
    """Calls of permgrp.<name>, counted."""
    calls, fn = [], getattr(pg, name)
    monkeypatch.setattr(pg, name, lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.mark.parametrize("n", [1000, 1001, 4096, 4097])
def test_window_cycle_probes_match_the_reference(monkeypatch, n):
    # each case: the cycle lengths from point 0 on, and whether the
    # probes leave the word undecided, so that its cycles are labelled
    primes = set(pg.window_primes(n))
    q, q_low = max(primes), min(primes)
    s = 1 << isqrt(n).bit_length()
    cases = [
        ([n // 2], False),  # 2L = n or n - 1: the covered half decides, at n odd on a second probe
        ([n // 2 + 1], False),  # the long cycle, not prime
        ([q], False), ([q_low], False),  # a window prime, L > s: giant steps
        ([3 * n // 10, 3 * n // 10], False),  # covered half after marking one large cycle
        ([2] * (n // 2), True),  # n/2 transpositions: no probe decides
        ([1, q], False), ([5, 7, q_low], False),  # point 0 misses the long cycle: probes 2, 3
        ([1, 1, 1, q], True),  # three fixed points first: the labels find it
        ([s - 1, q_low], False), ([s, q_low], False), ([s + 1, q_low], False),
        ([2 * s, q_low], False), ([2 * s + 1, q_low], False),  # the first cycle's length decides
        ([s, s, n - 2 * s], False),  # where the second probe starts
        ([n // 10] * 5, True),  # three probes cover 3n/10: labels, and no long cycle
    ]
    labelled = _spy(monkeypatch, "_cycle_labels")
    rng = random.Random(n)
    for lengths, undecided in cases:
        p = _blocks(n, lengths, rng)
        gens = [np.array(p, dtype=np.int32)]
        want = next((c for c in _ref_cycle_lengths(p) if c in primes), None)
        labelled.clear()
        assert pg._window_cycle([(0, 1)], gens, gens, primes, *_bufs(n, 3)) == want, lengths
        assert len(labelled) == undecided, lengths


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_baby_and_giant_steps_find_each_cycle_length(k):
    # the length of x's cycle, exact on either side of s and its
    # multiples; the power perm^s by k squarings, perm kept
    s, n = 1 << k, (1 << k) * 4 + 3
    rng = random.Random(k)
    for length in range(1, n + 1):
        p = _blocks(n, [length], rng)
        perm = np.array(p, dtype=np.int32)
        x, y = _bufs(n, 2)
        power = pg._power(perm, k, x, y)
        assert perm.tolist() == p and any(power is b for b in (x, y))
        ref = pg.id_perm(n)
        for _ in range(s):
            ref = pg.mult(ref, p)
        assert power.tolist() == ref
        start = rng.randrange(length)
        baby = pg._baby_steps(perm, start, s)
        assert baby[0] == start and all(p[a] == b for a, b in zip(baby, baby[1:]))
        assert len(baby) == min(length, s)
        assert sorted(baby) == sorted(set(baby)) and all(b < length for b in baby)
        if length >= s:
            assert pg._giant_steps(power, baby) == (-(-length // s), length)


@pytest.mark.parametrize("longest", sorted({2 ** k + d for k in range(11) for d in (0, 1)}))
def test_cycle_labels_stop_once_settled(monkeypatch, longest):
    # the labels settle in ceil(log2 longest) rounds, and one more round
    # that lowers none ends the labelling: 2 ceil(log2 longest) + 1
    # gathers, where the parent's 2 ceil(log2 n) - 1 are 23 at n = 3000
    n, rng = 3000, random.Random(longest)
    rest = []
    while sum(rest) + longest < n:  # shorter cycles after the longest one
        rest.append(rng.randint(1, longest))
    p = _blocks(n, [longest] + rest[:-1], rng)
    gathers = _spy(monkeypatch, "_gather")
    lab = pg._cycle_labels(np.array(p, dtype=np.int32), *_bufs(n, 2))
    assert lab.tolist() == _ref_cycle_labels(p)
    assert len(gathers) == 2 * (longest - 1).bit_length() + 1


def test_involution_labels_in_three_gathers(monkeypatch):
    # at n = 5 000 the parent ran 13 rounds of labels and 12 squarings
    n = 5000
    p = cyc(n, *[(k, n - 1 - k) for k in range(0, n // 2, 3)])
    gathers = _spy(monkeypatch, "_gather")
    assert pg._cycle_labels(np.array(p, dtype=np.int32), *_bufs(n, 2)).tolist() == \
        _ref_cycle_labels(p)
    assert len(gathers) <= 3
    gathers.clear()
    assert pg.sign(p) == _ref_sign(p) and len(gathers) <= 3


WREATH = [cyc(100, (0, 1)), list(range(2, 100)) + [0, 1]]  # C2 wr C50: no window cycle


def _count_draws(monkeypatch):
    draws = []
    random_word = pg._random_word
    monkeypatch.setattr(pg, "_random_word",
                        lambda n_gens, rng: draws.append(1) or random_word(n_gens, rng))
    return draws


@pytest.mark.parametrize("budget", [1, 2, 120])
def test_search_draws_at_most_budget_words_and_leaves_no_thread(monkeypatch, budget):
    threads = threading.active_count()
    draws = _count_draws(monkeypatch)
    assert isinstance(pg.giant_certificate(WREATH, 100, seed=1, budget=budget), pg.Inconclusive)
    assert len(draws) == budget and threading.active_count() == threads
    for seed in range(5):
        draws.clear()
        cert = pg.giant_certificate(S100, 100, seed=seed, budget=budget)
        assert len(draws) <= budget and threading.active_count() == threads
        assert cert == pg.giant_certificate(S100, 100, seed=seed, budget=budget)


def test_helper_exception_reaches_the_caller(monkeypatch):
    # the helper's kernel raises while the caller's is held: the very
    # exception object comes out, the caller draws no more words, and no
    # thread is left running
    threads = threading.active_count()
    err, raised = RuntimeError("helper kernel"), threading.Event()
    word_perm = pg._word_perm  # every word composes, however its cycles are then found

    def failing(word, *args):
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise err
        assert raised.wait(10)
        return word_perm(word, *args)

    monkeypatch.setattr(pg, "_word_perm", failing)
    draws = _count_draws(monkeypatch)
    for gens in (S100, WREATH):
        raised.clear()
        draws.clear()
        with pytest.raises(RuntimeError) as info:
            pg.giant_certificate(gens, 100, seed=3)
        assert info.value is err and threading.active_count() == threads
        assert len(draws) <= 3  # the caller stops at its next draw


def test_caller_exception_joins_the_helper(monkeypatch):
    threads = threading.active_count()
    word_perm = pg._word_perm

    def failing(word, *args):
        if threading.current_thread() is threading.main_thread():
            raise KeyError("caller kernel")
        return word_perm(word, *args)

    monkeypatch.setattr(pg, "_word_perm", failing)
    with pytest.raises(KeyError, match="caller kernel"):
        pg.giant_certificate(WREATH, 100, seed=3)
    assert threading.active_count() == threads


def test_searches_on_more_threads_than_cores_keep_draw_order():
    # three searches at once, each with its helper, switching threads
    # every microsecond: a lost update of a search's draw index or of
    # its lowest hit would change its certificate
    seeds = range(12)
    got, interval = {}, sys.getswitchinterval()

    def run(part):
        for s in part:
            cert = pg.giant_certificate(S100, 100, seed=s)
            got[s] = (cert.word, cert.q)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seeds[k::3],)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == {s: _ref_first_hit(S100, 100, s)[1:] for s in seeds}
