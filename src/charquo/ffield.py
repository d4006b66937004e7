"""Exact arithmetic in F_p and in SL2 / PSL2 / PGL2(F_p).

Matrices are 4-tuples (m11, m12, m21, m22) with entries reduced to
[0, p).  A PSL2 element is stored as its sign-canonical determinant-1
lift: the first nonzero entry in row-major order lies in [1, (p-1)/2].
PGL2 elements are matrices mod scalars, canonicalized by scaling the
first nonzero entry to 1; their determinant survives as a square /
non-square class.

The same arithmetic is vectorized over numpy int64 arrays whose last
axis holds (m11, m12, m21, m22) (the `_np` functions), or entrywise
over the rows of entry-major copies (mm_raw, entry_major), next to the
base-p packing of digit vectors into order-preserving int64 keys.
Conjugators between matrices of equal trace and determinant are closed
form: each non-scalar 2x2 matrix is the companion matrix of its
characteristic polynomial in the basis (v, Mv) of a cyclic vector v
(conjugator_np), so no linear system is solved.

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


# -- raw matrix helpers -------------------------------------------------

def mat_id() -> Mat:
    return (1, 0, 0, 1)


def mat_mul(F: PrimeField, A: Mat, B: Mat) -> Mat:
    p = F.p
    a, b, c, d = A
    e, f, g, h = B
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def mat_inv(F: PrimeField, A: Mat) -> Mat:
    """Adjugate of A: its inverse when det A = 1, and its inverse up to
    the scalar det A (so projectively exact) otherwise."""
    p = F.p
    a, b, c, d = A
    return (d, (-b) % p, (-c) % p, a)


def mat_neg(F: PrimeField, A: Mat) -> Mat:
    p = F.p
    return tuple((-x) % p for x in A)


def mat_det(F: PrimeField, A: Mat) -> int:
    return (A[0] * A[3] - A[1] * A[2]) % F.p


def mat_trace(F: PrimeField, A: Mat) -> int:
    return (A[0] + A[3]) % F.p


def mat_pow(F: PrimeField, A: Mat, n: int) -> Mat:
    if n < 0:
        return mat_pow(F, mat_inv(F, A), -n)
    out = mat_id()
    while n:
        if n & 1:
            out = mat_mul(F, out, A)
        A = mat_mul(F, A, A)
        n >>= 1
    return out


def is_scalar(F: PrimeField, A: Mat) -> bool:
    return A[1] == 0 and A[2] == 0 and A[0] == A[3]


def psl_canon(F: PrimeField, A: Mat) -> Mat:
    """Sign-canonical lift: first nonzero entry lies in [1, (p-1)/2]."""
    for x in A:
        if x != 0:
            if x > F.half:
                return mat_neg(F, A)
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


# -- vectorized 2x2 arithmetic (last axis = (m11, m12, m21, m22)) --------

def mm_raw(A, B):
    """Unreduced 2x2 product of matrices given entrywise: A and B are
    4-sequences (m11, m12, m21, m22) of ints or equal-shape arrays, such
    as the rows of an entry-major (4, m) array.  Each entry is a sum of
    two products, so below 2 max|A| max|B| in absolute value."""
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def entry_major(rows):
    """An entry-major int64 (k, m) copy of the (m, k) rows, of any integer
    dtype.  Kernels over narrow stored rows compute on this copy: in
    uint16, products wrap and so does the -x of an adjugate."""
    return np.ascontiguousarray(rows.T, dtype=np.int64)


def mm_np(p, A, B):
    return np.stack([x % p for x in mm_raw(np.moveaxis(A, -1, 0),
                                           np.moveaxis(B, -1, 0))], axis=-1)


def minv_np(p, A):
    """Adjugates (inverses of the determinant-1 matrices), as mat_inv."""
    return np.stack((A[..., 3], (p - A[..., 1]) % p,
                     (p - A[..., 2]) % p, A[..., 0]), axis=-1)


def tr_np(p, A):
    return (A[..., 0] + A[..., 3]) % p


def first_nonzero_np(A):
    """First nonzero entry along the last axis (0 for an all-zero row),
    by a np.where cascade from the last entry to the first."""
    out = A[..., -1]
    for j in range(A.shape[-1] - 2, -1, -1):
        out = np.where(A[..., j] != 0, A[..., j], out)
    return out


def psl_canon_np(p, A):
    """Flip signs so the first nonzero entry lies in [1, (p-1)/2]."""
    half = (p - 1) // 2
    return np.where((first_nonzero_np(A) > half)[..., None], (p - A) % p, A)


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
    return A * inv_table(p)[first_nonzero_np(A)][..., None] % p


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
    for j in range(width - 1, -1, -1):
        keys, out[..., j] = np.divmod(keys, p)
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
        if mat_det(F, m) != 1:
            raise ValueError(f"determinant is {mat_det(F, m)}, not 1")
        return cls(F, psl_canon(F, m))

    @classmethod
    def identity(cls, F: PrimeField) -> "ProjMat2":
        return cls(F, mat_id())

    def __mul__(self, other: "ProjMat2") -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, mat_mul(self.field, self.m, other.m)))

    def inv(self) -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, mat_inv(self.field, self.m)))

    def trace(self) -> int:
        """Trace of the canonical lift (one of the two signed traces)."""
        return mat_trace(self.field, self.m)

    def __pow__(self, n: int) -> "ProjMat2":
        return ProjMat2(self.field, psl_canon(self.field, mat_pow(self.field, self.m, n)))

    def is_one(self) -> bool:
        return is_scalar(self.field, self.m)

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
        while n % q == 0 and is_scalar(F, mat_pow(F, M.m, n // q)):
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
        det = mat_det(F, g)
        if det:
            yield pgl_canon(F, g), det


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
    out = [(mat_id(), 1)] + [(g, F.legendre(det)) for g, det in torus_pencil(F, M.m)]
    expect = p - 1 if cls is ElementClass.SPLIT else p + 1
    if len(out) != expect:
        raise InvariantError(f"centralizer of {M} at p = {p}: {len(out)} elements, "
                             f"expected {expect}")
    return out


def centralizer_element_of_class(M: ProjMat2, det_class: int) -> Mat:
    """Some element of C_PGL2(M) with the requested determinant class."""
    if det_class == 1:
        return mat_id()
    F = M.field
    for g, det in torus_pencil(F, M.m):
        if F.legendre(det) == det_class:
            return g
    raise ValueError("torus has no element of the requested class")


# -- conjugators by cyclic vectors ---------------------------------------

def conjugator_np(p, M, N):
    """g with g M g^-1 = N and det g != 0, row by row, for non-scalar
    M and N of equal trace and determinant: g = [w | N w] adj([v | M v]).

    v is a cyclic vector of M (e1 if m21 != 0, else e2 if m12 != 0, else
    e1 + e2, M being diagonal) and w the same for N; in the bases (v, Mv)
    and (w, Nw) both matrices are the companion matrix of their common
    characteristic polynomial.  No check is made: other rows give some
    matrix g, possibly singular.
    """
    def cyclic_basis(A):
        a, b, c, d = np.moveaxis(A, -1, 0)
        y = (c == 0).astype(np.int64)
        x = ((c != 0) | (b == 0)).astype(np.int64)
        return np.stack((x, (a * x + b * y) % p, y, (c * x + d * y) % p), axis=-1)

    return mm_np(p, cyclic_basis(N), minv_np(p, cyclic_basis(M)))


def exact_conjugator(F: PrimeField, M: Mat, N: Mat) -> Mat:
    """Invertible g with g M g^-1 = N exactly (not just up to sign).

    Two non-scalar 2x2 matrices are conjugate exactly when their traces
    and determinants agree (conjugator_np builds g); two scalars only
    when equal, by the identity.  Raises NotConjugateError otherwise.
    """
    if (mat_trace(F, M) != mat_trace(F, N) or mat_det(F, M) != mat_det(F, N)
            or is_scalar(F, M) != is_scalar(F, N)):
        raise NotConjugateError(f"{M} is not conjugate to {N} over F_{F.p}")
    if is_scalar(F, M):
        return mat_id()
    g = conjugator_np(F.p, np.array(M, dtype=np.int64), np.array(N, dtype=np.int64))
    return tuple(int(x) for x in g)


def conjugator(M: ProjMat2, N: ProjMat2):
    """A PGL2 element g with g M g^-1 = N at the PSL2 level.

    Returns (g, det_class) with g pgl-canonical: the exact conjugator
    onto N, or onto -N when there is none.
    """
    F = M.field
    for target in (N.m, mat_neg(F, N.m)):
        try:
            g = pgl_canon(F, exact_conjugator(F, M.m, target))
        except NotConjugateError:
            continue
        return g, F.legendre(mat_det(F, g))
    raise NotConjugateError(f"{M} is not PGL2-conjugate to {N}")
