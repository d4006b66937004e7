"""The equivariant quandle a <| b = a b^-1 a and the braid action on
quadruples of group elements.

Generic over any group whose elements support ``*``, ``.inv()`` and
equality, so the same engine runs over PSL2(F_p), SL2(F_p) and small
permutation groups in tests.

Words act left-to-right: the leftmost letter of a word is applied
first.  This convention is fixed here and propagated everywhere
(permutation extraction, the F2 generators, the center word).
"""

from __future__ import annotations

from .numutil import InvariantError

# A letter is (i, e) with i in {1, 2, 3} and e = +1 or -1.
S1, S2, S3 = (1, 1), (2, 1), (3, 1)
S1i, S2i, S3i = (1, -1), (2, -1), (3, -1)

# The center generator (s3 s2 s1)^4 of B4 and the inner element
# (s2 s3 s1)^2 that swaps s1 with s3, written in apply-order
# (rightmost group factor first).
CENTER_WORD = [S1, S2, S3] * 4
INNER_WORD = [S1, S3, S2] * 2


def triangle(a, b):
    """The equivariant quandle operation a <| b = a b^-1 a."""
    return a * b.inv() * a


def apply_letter(letter, Q):
    """One braid generator (or inverse) acting on a quadruple."""
    i, e = letter
    a, b, c, d = Q
    if e == 1:
        if i == 1:
            return (triangle(a, b), a, c, d)
        if i == 2:
            return (a, triangle(b, c), b, d)
        if i == 3:
            return (a, b, triangle(c, d), c)
    else:
        if i == 1:
            return (b, triangle(b, a), c, d)
        if i == 2:
            return (a, c, triangle(c, b), d)
        if i == 3:
            return (a, b, d, triangle(d, c))
    raise ValueError(f"bad letter {letter}")


def apply_word(word, Q):
    """Apply a braid word, leftmost letter first."""
    for letter in word:
        Q = apply_letter(letter, Q)
    return Q


def gamma(Q):
    """The preserved element a b^-1 c d^-1."""
    a, b, c, d = Q
    return a * b.inv() * c * d.inv()


def delta(Q):
    """The preserved element a^-1 b c^-1 d."""
    a, b, c, d = Q
    return a.inv() * b * c.inv() * d


def epsilon(Q):
    """The reversal involution (a,b,c,d) -> (d,c,b,a).

    Conjugates each sigma_i to sigma_(4-i)^-1 and inverts gamma, delta.
    """
    a, b, c, d = Q
    return (d, c, b, a)


def left_mul(g, Q):
    return tuple(g * x for x in Q)


def right_mul(Q, g):
    return tuple(x * g for x in Q)


def center_image(Q):
    """Image of Q under the center generator of B4.

    Applies the center word and checks the closed form
    gamma * Q * delta^-1; a mismatch would be an implementation bug
    (InvariantError).
    """
    R = apply_word(CENTER_WORD, Q)
    g, dinv = gamma(Q), delta(Q).inv()
    expected = tuple(g * x * dinv for x in Q)
    if any(r != e for r, e in zip(R, expected)):
        field = getattr(Q[0], "field", None)
        where = f" at p = {field.p}" if field is not None else ""
        raise InvariantError(f"center word{where}: image differs from gamma Q delta^-1")
    return R
