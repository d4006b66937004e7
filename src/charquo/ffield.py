"""Exact arithmetic in F_p and in SL2 / PSL2 / PGL2(F_p).

Matrices are 4-sequences (m11, m12, m21, m22) with entries reduced to
[0, p).  A PSL2 element is stored as its sign-canonical determinant-1
lift: the first nonzero entry in row-major order lies in [1, (p-1)/2].
PGL2 elements are matrices mod scalars, canonicalized by scaling the
first nonzero entry to 1; their determinant survives as a square /
non-square class.

One set of 2x2 kernels (mm, adj, neg, det, tr, tr_mm, eq and the
unreduced mm_raw) serves every caller: they work entrywise, so the
entries may be Python ints or equal-shape int64 arrays.  One function
multiplies two tuples, two entry-major (4, m) blocks (entry_major
copies stored rows into one), or a fixed matrix against a block by
broadcasting.  psl_canon_np, pgl_canon_np and conjugator_np branch per
matrix with np.where on the same 4-sequences; base-p packing of digit
vectors into order-preserving int64 keys (pack_np) reads digits on the
last axis.  Conjugators between matrices of equal trace and
determinant are closed form: each non-scalar 2x2 matrix is the
companion matrix of its characteristic polynomial in the basis (v, Mv)
of a cyclic vector v (conjugator_np), so no linear system is solved.

Everything here is a pure function of its inputs; no interior mutation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numutil import InvariantError, factorize, is_prime

Mat = tuple  # (m11, m12, m21, m22), entries in [0, p)


class NotConjugateError(ValueError):
    pass


class PrimeField:
    """The field F_p for an odd prime p >= 5."""

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"modulus must be a prime >= 5, got {p}")
        self.p = p
        self.half = (p - 1) // 2

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(x, self.p - 2, self.p)

    def legendre(self, x: int) -> int:
        """Legendre symbol of x: +1 square, -1 non-square, 0 zero.

        Euler's criterion (one exponentiation), so p is unbounded.
        """
        x %= self.p
        if x == 0:
            return 0
        r = pow(x, self.half, self.p)
        return 1 if r == 1 else -1


# -- 2x2 kernels -----------------------------------------------------------
#
# A and B are 4-sequences (m11, m12, m21, m22) whose entries are ints or
# equal-shape (or broadcastable) int64 arrays.  Matrices come back as
# 4-tuples and scalars as single values of the same kind.  Every kernel
# reduces its output to [0, p) once, by residue, except two whose output
# only feeds another product: mm_raw (entries below 2 max|A| max|B| in
# absolute value) and adj_raw (the entries of A, two of them negated).
# The reducing kernels accept such unreduced inputs.  A caller that
# chains unreduced products (conjugator_np here, charvar.trace_coords,
# and orbit's apply_letter_np, _twisted_reversal and exact checker)
# states the bound of its largest intermediate, which must stay below
# 2^63 for p <= 509, the largest prime whose 7-digit trace keys fit in
# int64.

I2 = (1, 0, 0, 1)


def residue(p, x):
    """x mod p in [0, p), for an int or an int64 array of either sign:
    x - (x // p) p, with the quotient array reused for the result.
    Numpy divides an array by a scalar with a multiply-and-shift
    (division by invariant integers), several times faster than its
    integer remainder, so this is the one reduction of every kernel."""
    q = x // p
    q *= -p
    q += x
    return q


def mm_raw(A, B):
    """Unreduced 2x2 product.  Each entry is a sum of two products, so
    below 2 max|A| max|B| in absolute value."""
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mm(p, A, B):
    return tuple(residue(p, x) for x in mm_raw(A, B))


def adj_raw(A):
    """Unreduced adjugate of A: entries of A, two of them negated."""
    a, b, c, d = A
    return (d, -b, -c, a)


def adj(p, A):
    """Adjugate of A: its inverse when det A = 1, and its inverse up to
    the scalar det A (so projectively exact) otherwise."""
    return tuple(residue(p, x) for x in adj_raw(A))


def neg(p, A):
    return tuple(residue(p, -x) for x in A)


def det(p, A):
    a, b, c, d = A
    return residue(p, a * d - b * c)


def tr(p, A):
    return residue(p, A[0] + A[3])


def tr_mm(p, A, B):
    """tr(A B) mod p as a sum of four products, without forming A B."""
    return residue(p, A[0] * B[0] + A[1] * B[2] + A[2] * B[1] + A[3] * B[3])


def eq(A, B):
    """A == B entry by entry: a bool, or a mask over a block."""
    return (A[0] == B[0]) & (A[1] == B[1]) & (A[2] == B[2]) & (A[3] == B[3])


def is_scalar(A):
    """Whether A is a scalar matrix: a bool, or a mask over a block."""
    return (A[1] == 0) & (A[2] == 0) & (A[0] == A[3])


def mat_pow(F: PrimeField, A: Mat, n: int) -> Mat:
    p = F.p
    if n < 0:
        return mat_pow(F, adj(p, A), -n)
    out = I2
    while n:
        if n & 1:
            out = mm(p, out, A)
        A = mm(p, A, A)
        n >>= 1
    return out


def psl_canon(F: PrimeField, A: Mat) -> Mat:
    """Sign-canonical lift: first nonzero entry lies in [1, (p-1)/2]."""
    for x in A:
        if x != 0:
            if x > F.half:
                return neg(F.p, A)
            return A
    raise ValueError("zero matrix has no canonical lift")


def pgl_canon(F: PrimeField, A: Mat) -> Mat:
    """Scale so the first nonzero entry equals 1 (PGL2 representative)."""
    for x in A:
        if x != 0:
            if x == 1:
                return A
            s = F.inv(x)
            p = F.p
            return tuple(v * s % p for v in A)
    raise ValueError("zero matrix is not a PGL2 element")


# -- per-matrix branches and packing over arrays --------------------------

def entry_major(rows):
    """An entry-major int64 (k, m) copy of the (m, k) rows, of any integer
    dtype.  Kernels over narrow stored rows compute on this copy: in
    uint16, products wrap and so does the -x of an adjugate."""
    return np.ascontiguousarray(rows.T, dtype=np.int64)


def first_nonzero_np(A):
    """First nonzero entry of each matrix of the 4-sequence A (0 for a
    zero matrix), by a np.where cascade from the last entry to the
    first."""
    out = A[-1]
    for x in A[-2::-1]:
        out = np.where(x != 0, x, out)
    return out


def psl_canon_np(p, A):
    """Flip signs so the first nonzero entry lies in [1, (p-1)/2]."""
    flip = first_nonzero_np(A) > (p - 1) // 2
    return tuple(np.where(flip, residue(p, -x), x) for x in A)


@lru_cache(maxsize=None)
def inv_table(p) -> np.ndarray:
    """Read-only table of inverses mod p (entry 0 is 0)."""
    t = np.zeros(p, dtype=np.int64)
    t[1:] = [pow(i, p - 2, p) for i in range(1, p)]
    t.flags.writeable = False
    return t


@lru_cache(maxsize=None)
def legendre_table(p) -> np.ndarray:
    """Read-only table of Legendre symbols mod p: +1 on squares, -1 on
    non-squares, 0 at 0."""
    t = -np.ones(p, dtype=np.int64)
    t[0] = 0
    t[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    t.flags.writeable = False
    return t


def pencil_annihilators(p, M: Mat):
    """Two independent linear functionals on 2x2 matrices, as two
    4-tuples of coefficients on (m11, m12, m21, m22) in [0, p), whose
    common kernel is the pencil span(I, M).

    They are two of the three independent entries of N M - M N: for a
    non-scalar M the matrices commuting with M are exactly F_p[M] =
    span(I, M), so on PGL2 the kernel is the torus centralizing M.
    """
    a, b, c, d = (int(x) % p for x in M)
    t = (a - d) % p
    rows = ((0, c, -b, 0), (b, -t, 0, -b), (c, 0, -t, -c))
    if b:
        pick = (0, 1)
    elif c:
        pick = (0, 2)
    elif t:
        pick = (1, 2)
    else:
        raise ValueError(f"scalar matrix {M} spans no pencil with I over F_{p}")
    return tuple(tuple(x % p for x in rows[i]) for i in pick)


def pgl_canon_np(p, A):
    """Scale so the first nonzero entry equals 1."""
    s = inv_table(p)[first_nonzero_np(A)]
    return tuple(residue(p, x * s) for x in A)


def pack_np(p, digits):
    """Base-p value of the digits along the last axis (most significant
    first) as int64: order-preserving for digits in [0, p).  Raises
    ValueError unless p**width < 2**63."""
    digits = np.asarray(digits)
    width = digits.shape[-1]
    if p ** width >= 2 ** 63:
        raise ValueError(f"{width} base-{p} digits overflow int64 "
                         f"(packing needs p^{width} < 2^63)")
    out = digits[..., 0].astype(np.int64)
    for j in range(1, width):
        out *= p
        out += digits[..., j]
    return out


def unpack_np(p, keys, width):
    """Inverse of pack_np: the width base-p digits of each key, along a
    new last axis."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty(keys.shape + (width,), dtype=np.int64)
    quotient = np.empty_like(keys)  # each digit is written in place, with no copy
    for j in range(width - 1, -1, -1):
        keys = np.divmod(keys, p, out=(quotient, out[..., j]))[0]
    return out


# -- PSL2 elements ------------------------------------------------------

class ElementClass(enum.Enum):
    IDENTITY = "identity"
    INVOLUTION = "involution"
    UNIPOTENT = "unipotent"
    SPLIT = "split"
    NONSPLIT = "nonsplit"


@dataclass(frozen=True)
class ProjMat2:
    """An element of PSL2(F_p) as its sign-canonical determinant-1 lift."""

    field: PrimeField
    m: Mat

    @classmethod
    def of(cls, F: PrimeField, entries) -> "ProjMat2":
        p = F.p
        m = tuple(int(x) % p for x in entries)
        if det(p, m) != 1:
            raise ValueError(f"determinant is {det(p, m)}, not 1")
        return cls(F, psl_canon(F, m))

    @classmethod
    def identity(cls, F: PrimeField) -> "ProjMat2":
        return cls(F, I2)

    def __mul__(self, other: "ProjMat2") -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, mm(self.field.p, self.m, other.m)))

    def inv(self) -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, adj(self.field.p, self.m)))

    def trace(self) -> int:
        """Trace of the canonical lift (one of the two signed traces)."""
        return tr(self.field.p, self.m)

    def __pow__(self, n: int) -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, mat_pow(self.field, self.m, n)))

    def is_one(self) -> bool:
        return is_scalar(self.m)

    def __repr__(self):
        a, b, c, d = self.m
        return f"[[{a},{b}],[{c},{d}]] mod {self.field.p}"


def classify(M: ProjMat2) -> ElementClass:
    """Conjugacy type of a PSL2 element, a total function of the trace."""
    F = M.field
    if M.is_one():
        return ElementClass.IDENTITY
    t = M.trace()
    disc = (t * t - 4) % F.p
    if t == 0:
        return ElementClass.INVOLUTION
    if disc == 0:
        return ElementClass.UNIPOTENT
    return ElementClass.SPLIT if F.legendre(disc) == 1 else ElementClass.NONSPLIT


def coarse_type(M: ProjMat2) -> ElementClass:
    """Split / non-split / unipotent trichotomy (involutions folded in
    by the sign of the discriminant; identity rejected)."""
    cls = classify(M)
    if cls is ElementClass.IDENTITY:
        raise ValueError("identity has no coarse type")
    if cls is ElementClass.INVOLUTION:
        disc = (-4) % M.field.p
        return ElementClass.SPLIT if M.field.legendre(disc) == 1 else ElementClass.NONSPLIT
    return cls


def centralizer_order(M: ProjMat2) -> int:
    """Order of the centralizer of M in PSL2(F_p) (cyclic for
    non-involutions; involutions and the identity are rejected)."""
    cls = classify(M)
    p = M.field.p
    if cls is ElementClass.UNIPOTENT:
        return p
    if cls is ElementClass.SPLIT:
        return (p - 1) // 2
    if cls is ElementClass.NONSPLIT:
        return (p + 1) // 2
    raise ValueError(f"no cyclic centralizer for {cls}")


def order(M: ProjMat2) -> int:
    """Least k >= 1 with M^k = 1 in PSL2(F_p).

    Computed by factoring the known centralizer order of the class and
    descending over prime divisors; no generic discrete log.
    """
    cls = classify(M)
    if cls is ElementClass.IDENTITY:
        return 1
    if cls is ElementClass.INVOLUTION:
        return 2
    F = M.field
    n = centralizer_order(M)
    for q in factorize(n):
        while n % q == 0 and is_scalar(mat_pow(F, M.m, n // q)):
            n //= q
    return n


def is_maximal(M: ProjMat2) -> bool:
    """Whether M generates its own centralizer in PSL2(F_p)."""
    cls = classify(M)
    if cls in (ElementClass.IDENTITY, ElementClass.INVOLUTION):
        raise ValueError(f"maximality undefined for {cls}")
    if cls is ElementClass.UNIPOTENT:
        return True  # centralizer has order p, generated by any nontrivial member
    return order(M) == centralizer_order(M)


# -- tori in PGL2 -------------------------------------------------------

def torus_pencil(F: PrimeField, M: Mat):
    """The invertible members x*I + M, x in F_p, of the pencil through M,
    as (pgl-canonical matrix, determinant) pairs.  With the identity they
    are the units of F_p[M] mod scalars: every g with g M g^-1 = M
    exactly, when M is not scalar."""
    p = F.p
    a, b, c, d = M
    for x in range(p):
        g = ((x + a) % p, b, c, (x + d) % p)
        det_g = det(p, g)
        if det_g:
            yield pgl_canon(F, g), det_g


def centralizer_pgl(M: ProjMat2):
    """The full torus centralizing M in PGL2(F_p).

    Returns a list of (matrix, det_class) with matrix a pgl-canonical
    tuple and det_class in {+1, -1}.  The torus is the unit group of
    F_p[M] mod scalars: projectively the pencil x*I + y*M, (x:y) in P^1,
    minus its singular members.  Size p-1 (split) or p+1 (non-split).
    """
    cls = classify(M)
    if cls not in (ElementClass.SPLIT, ElementClass.NONSPLIT):
        raise ValueError(f"centralizer enumeration unsupported for {cls}")
    F = M.field
    p = F.p
    out = [(I2, 1)] + [(g, F.legendre(d)) for g, d in torus_pencil(F, M.m)]
    expect = p - 1 if cls is ElementClass.SPLIT else p + 1
    if len(out) != expect:
        raise InvariantError(f"centralizer of {M} at p = {p}: {len(out)} elements, "
                             f"expected {expect}")
    return out


def centralizer_element_of_class(M: ProjMat2, det_class: int) -> Mat:
    """Some element of C_PGL2(M) with the requested determinant class."""
    if det_class == 1:
        return I2
    F = M.field
    for g, d in torus_pencil(F, M.m):
        if F.legendre(d) == det_class:
            return g
    raise ValueError("torus has no element of the requested class")


# -- conjugators by cyclic vectors ---------------------------------------

def conjugator_np(p, M, N):
    """g with g M g^-1 = N and det g != 0, matrix by matrix of the
    4-sequences M and N, for non-scalar M and N of equal trace and
    determinant: g = [w | N w] adj([v | M v]).

    v is a cyclic vector of M (e1 if m21 != 0, else e2 if m12 != 0, else
    e1 + e2, M being diagonal) and w the same for N; in the bases (v, Mv)
    and (w, Nw) both matrices are the companion matrix of their common
    characteristic polynomial.  No check is made: other matrices give
    some matrix g, possibly singular.  The bases are left unreduced
    (entries below 2p for M and N reduced), so g's entries are reduced
    once, from below 8 p^2.
    """
    def cyclic_basis(A):
        a, b, c, d = A
        y = np.where(c == 0, 1, 0)
        x = np.where((c != 0) | (b == 0), 1, 0)
        return (x, a * x + b * y, y, c * x + d * y)

    return mm(p, cyclic_basis(N), adj_raw(cyclic_basis(M)))


def exact_conjugator(F: PrimeField, M: Mat, N: Mat) -> Mat:
    """Invertible g with g M g^-1 = N exactly (not just up to sign).

    Two non-scalar 2x2 matrices are conjugate exactly when their traces
    and determinants agree (conjugator_np builds g); two scalars only
    when equal, by the identity.  Raises NotConjugateError otherwise.
    """
    p = F.p
    if (tr(p, M) != tr(p, N) or det(p, M) != det(p, N)
            or is_scalar(M) != is_scalar(N)):
        raise NotConjugateError(f"{M} is not conjugate to {N} over F_{p}")
    if is_scalar(M):
        return I2
    return tuple(int(x) for x in conjugator_np(p, M, N))


def conjugator(M: ProjMat2, N: ProjMat2):
    """A PGL2 element g with g M g^-1 = N at the PSL2 level.

    Returns (g, det_class) with g pgl-canonical: the exact conjugator
    onto N, or onto -N when there is none.
    """
    F = M.field
    for target in (N.m, neg(F.p, N.m)):
        try:
            g = pgl_canon(F, exact_conjugator(F, M.m, target))
        except NotConjugateError:
            continue
        return g, F.legendre(det(F.p, g))
    raise NotConjugateError(f"{M} is not PGL2-conjugate to {N}")
