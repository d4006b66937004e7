import random

import pytest

from charquo import braidquandle as bq
from charquo.numutil import InvariantError
from charquo.ffield import PrimeField, ProjMat2
from conftest import rand_psl2, rand_quad

LETTERS = [bq.S1, bq.S1i, bq.S2, bq.S2i, bq.S3, bq.S3i]


def test_triangle_examples():
    F = PrimeField(7)
    a = ProjMat2.of(F, (1, 1, 0, 1))
    b = ProjMat2.of(F, (1, 0, 1, 1))
    assert bq.triangle(a, a) == a
    assert bq.triangle(ProjMat2.identity(F), b) == b.inv()
    assert bq.triangle(a, b) == ProjMat2.of(F, (0, 1, -1, 0))


def test_quandle_axioms(F1009, rng):
    for _ in range(300):
        a, b, c = (rand_psl2(F1009, rng) for _ in range(3))
        assert bq.triangle(a, a) == a
        lhs = bq.triangle(a, bq.triangle(b, c))
        rhs = bq.triangle(bq.triangle(a, b), bq.triangle(a, c))
        assert lhs == rhs


def test_braid_relations(F1009, rng):
    for _ in range(200):
        Q = rand_quad(F1009, rng)
        assert bq.apply_word([bq.S1, bq.S2, bq.S1], Q) == bq.apply_word([bq.S2, bq.S1, bq.S2], Q)
        assert bq.apply_word([bq.S2, bq.S3, bq.S2], Q) == bq.apply_word([bq.S3, bq.S2, bq.S3], Q)
        assert bq.apply_word([bq.S1, bq.S3], Q) == bq.apply_word([bq.S3, bq.S1], Q)


def test_letters_are_bijections(F1009, rng):
    for _ in range(200):
        Q = rand_quad(F1009, rng)
        for L in (bq.S1, bq.S2, bq.S3):
            Li = (L[0], -1)
            assert bq.apply_letter(Li, bq.apply_letter(L, Q)) == Q
            assert bq.apply_letter(L, bq.apply_letter(Li, Q)) == Q


def test_sigma1_fixes_diagonal(F1009, rng):
    a = rand_psl2(F1009, rng)
    c = rand_psl2(F1009, rng)
    d = rand_psl2(F1009, rng)
    assert bq.apply_letter(bq.S1, (a, a, c, d)) == (a, a, c, d)


def test_s3s2s1_closed_form(F1009, rng):
    # (s3 s2 s1): (a,b,c,d) -> a (b^-1, c^-1, d^-1, a^-1) a
    for _ in range(50):
        Q = rand_quad(F1009, rng)
        a, b, c, d = Q
        got = bq.apply_word([bq.S1, bq.S2, bq.S3], Q)
        want = tuple(a * x.inv() * a for x in (b, c, d, a))
        assert got == want


def test_gamma_delta_invariance(F1009, rng):
    for _ in range(100):
        Q = rand_quad(F1009, rng)
        g, d = bq.gamma(Q), bq.delta(Q)
        w = [rng.choice(LETTERS) for _ in range(8)]
        R = bq.apply_word(w, Q)
        assert bq.gamma(R) == g and bq.delta(R) == d
    e = rand_psl2(F1009, rng)
    assert bq.gamma((e, e, e, e)).is_one()


def test_center_formula(F1009, rng):
    for _ in range(100):
        Q = rand_quad(F1009, rng)
        bq.center_image(Q)  # checks the closed form internally
    g = rand_psl2(F1009, rng)
    Q = (g, g, g, g)
    assert bq.center_image(Q) == Q


def test_center_formula_failure_raises(F1009, rng, monkeypatch):
    monkeypatch.setattr(bq, "CENTER_WORD", [])
    with pytest.raises(InvariantError, match="center word at p = 1009"):
        bq.center_image(rand_quad(F1009, rng))


def test_epsilon_properties(F1009, rng):
    for _ in range(200):
        Q = rand_quad(F1009, rng)
        assert bq.epsilon(bq.epsilon(Q)) == Q
        assert bq.gamma(bq.epsilon(Q)) == bq.gamma(Q).inv()
        assert bq.delta(bq.epsilon(Q)) == bq.delta(Q).inv()
        for i in (1, 2, 3):
            lhs = bq.epsilon(bq.apply_letter((i, 1), bq.epsilon(Q)))
            assert lhs == bq.apply_letter((4 - i, -1), Q)


def test_two_sided_equivariance(F1009, rng):
    for _ in range(100):
        Q = rand_quad(F1009, rng)
        g = rand_psl2(F1009, rng)
        for L in LETTERS:
            assert bq.apply_letter(L, bq.left_mul(g, Q)) == bq.left_mul(g, bq.apply_letter(L, Q))
            assert bq.apply_letter(L, bq.right_mul(Q, g)) == bq.right_mul(bq.apply_letter(L, Q), g)


def test_inner_conjugation_identity(F1009, rng):
    # (s2 s3 s1)^2 swaps s1 and s3 and fixes s2, as transformations
    w = bq.INNER_WORD
    for _ in range(100):
        Q = rand_quad(F1009, rng)
        assert bq.apply_word(w + [bq.S1], Q) == bq.apply_word([bq.S3] + w, Q)
        assert bq.apply_word(w + [bq.S3], Q) == bq.apply_word([bq.S1] + w, Q)
        assert bq.apply_word(w + [bq.S2], Q) == bq.apply_word([bq.S2] + w, Q)


def test_wreath_product_embedding(F1009, rng):
    """The equivariant quandle is the conjugation quandle of the
    wreath product with Z/2 on the subset {((a, a^-1), swap)}."""
    def wmul(g, h):
        (x1, y1), b1 = g
        (x2, y2), b2 = h
        if b1:
            x2, y2 = y2, x2
        return ((x1 * x2, y1 * y2), (b1 + b2) % 2)

    def winv(g):
        (x, y), b = g
        if b:
            return ((y.inv(), x.inv()), 1)
        return ((x.inv(), y.inv()), 0)

    for _ in range(100):
        a, b = rand_psl2(F1009, rng), rand_psl2(F1009, rng)
        ga = ((a, a.inv()), 1)
        gb = ((b, b.inv()), 1)
        conj = wmul(wmul(ga, gb), winv(ga))
        t = bq.triangle(a, b)
        assert conj == ((t, t.inv()), 1)


def test_generic_over_symmetric_group():
    # the same engine runs over a small symmetric group
    class Perm:
        def __init__(self, img):
            self.img = tuple(img)

        def __mul__(self, other):
            return Perm(other.img[i] for i in self.img)

        def inv(self):
            out = [0] * len(self.img)
            for i, j in enumerate(self.img):
                out[j] = i
            return Perm(out)

        def __eq__(self, other):
            return self.img == other.img

        def __hash__(self):
            return hash(self.img)

    rng = random.Random(2)
    elts = [Perm(p) for p in ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 2, 1, 3, 4))]
    for _ in range(60):
        Q = tuple(rng.choice(elts) * rng.choice(elts) for _ in range(4))
        assert bq.apply_word([bq.S1, bq.S2, bq.S1], Q) == bq.apply_word([bq.S2, bq.S1, bq.S2], Q)
        bq.center_image(Q)


# -- the F2 identities: constants of the construction ----------------------
# Words in x, y and their inverses X, Y, read left to right.

# the inverse of each automorphism x -> u, y -> v of F2_CONJUGATES
F2_INVERSES = {"sigma1": ("x", "yX"), "sigma2": ("y", "yXy"), "sigma3": ("x", "Xy"),
               "epsilon": ("x", "xYx")}


def _substitute(images, word):
    """word with x -> images[0] and y -> images[1], freely reduced."""
    out = []
    for letter in word:
        image = images["xy".index(letter.lower())]
        if letter.isupper():
            image = image[::-1].swapcase()
        for c in image:
            if out and out[-1] == c.swapcase():
                out.pop()
            else:
                out.append(c)
    return "".join(out)


def _abelianised(images):
    """The 2x2 integer matrix whose columns are the exponent sums of u and v."""
    cols = [[w.count(c) - w.count(c.upper()) for c in "xy"] for w in images]
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def _mul(*mats):
    out = ((1, 0), (0, 1))
    for (e, f), (g, h) in mats:
        (a, b), (c, d) = out
        out = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return out


def _inv(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    assert det in (1, -1)
    return ((d * det, -b * det), (-c * det, a * det))


def test_f2_conjugates_are_automorphisms():
    # each substitution, composed with its stated inverse either way
    # round, reduces to the identity
    assert set(bq.F2_CONJUGATES) == set(F2_INVERSES)
    for g, images in bq.F2_CONJUGATES.items():
        for a, b in ((images, F2_INVERSES[g]), (F2_INVERSES[g], images)):
            assert [_substitute(a, w) for w in b] == ["x", "y"], g
    assert F2_INVERSES["epsilon"] == bq.F2_CONJUGATES["epsilon"]  # an involution


def test_f2_conjugates_generate_gl2z():
    # S = s2^-1 s1^-2, T = s1 and D = diag(1, -1) = s1^2 eps, abelianised.
    # They generate GL2(Z): left factors S, T^+-1 and D reduce every
    # matrix of determinant +-1 with entries in [-3, 3] to the identity
    # (Euclid's algorithm on the first column)
    m = {g: _abelianised(images) for g, images in bq.F2_CONJUGATES.items()}
    assert m["sigma1"] == m["sigma3"] == ((1, 1), (0, 1))
    S = _mul(_inv(m["sigma2"]), _inv(m["sigma1"]), _inv(m["sigma1"]))
    T = m["sigma1"]
    D = _mul(m["sigma1"], m["sigma1"], m["epsilon"])
    assert (S, T, D) == (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, -1)))
    box = range(-3, 4)
    reduced = 0
    for a in box:
        for b in box:
            for c in box:
                for d in box:
                    M = ((a, b), (c, d))
                    if a * d - b * c not in (1, -1):
                        continue
                    while M[1][0] != 0:
                        (a1, _), (c1, _) = M
                        if abs(a1) < abs(c1):
                            M = _mul(S, M)
                        else:
                            M = _mul(_inv(T) if a1 * c1 > 0 else T, M)
                    if M[1][1] * M[0][0] == -1:
                        M = _mul(D, M)
                    if M[0][0] == -1:
                        M = _mul(S, S, M)
                    while M[0][1] != 0:
                        M = _mul(_inv(T) if M[0][1] > 0 else T, M)
                    assert M == ((1, 0), (0, 1))
                    reduced += 1
    assert reduced > 100
