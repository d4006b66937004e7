"""Exact dense linear algebra over Z[q^+-1, s^+-1].

Matrices are lists of rows of LaurentPoly2.  Elimination is one-step
fraction-free (Bareiss): every division is exact in the ring and
raises if not, so a wrong pivot chain cannot corrupt silently.
Kernel vectors come out over the ring, content-stripped, and there is
no fraction type: the engine's matrices are ring matrices, compared
with ==.  mat_mul skips zero entries, so its cost is the number of
nonzero products, not m * k * n.

ff_jordan is the one elimination.  It rescales a row lazily: a row
whose head is zero at a step keeps a stamp, the pivot it was last
brought up to, and stands for row * prev / stamp.  Bareiss entries are
minors (Sylvester's identity), so bringing a row up to date is one
exact division; the pivots, the rows and d are those of the eager
elimination.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

from .laurent import ONE, ZERO, dot, qs_monomial


def mat_mul(A, B):
    """A B.  Entry (i, j) is one dot over the nonzero products A[i][t]
    B[t][j], in t order, with no LaurentPoly2 per product."""
    n = len(B[0]) if B else 0
    Bnz = [[(j, b) for j, b in enumerate(row) if b.terms] for row in B]
    out = []
    for Ai in A:
        entries = defaultdict(list)
        for a, bt in zip(Ai, Bnz):
            if a.terms:
                for j, b in bt:
                    entries[j].append((a, b))
        row = [ZERO] * n
        for j, pairs in entries.items():
            row[j] = dot(pairs)
        out.append(row)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _pivot_row(rows, r, c):
    """Shortest nonzero candidate keeps the fill-in small."""
    best = None
    for i in range(r, len(rows)):
        t = len(rows[i][c].terms)
        if t and (best is None or t < len(rows[best][c].terms)):
            best = i
            if t == 1:
                break
    return best


def _rescale(row, num, den):
    """The row times num / den, entry by entry, each division exact."""
    return [(e * num).exact_div(den) if e.terms else e for e in row]


def ff_jordan(A):
    """Fraction-free Gauss-Jordan: returns (rows, pivots, d) with the
    pivot entries all equal to d after full reduction, so a consistent
    system A x = b reads off x = row / d.

    Bareiss's step at pivot piv (previous pivot prev) sends each other
    row to (row * piv - head * pivot_row) / prev; a row with a zero
    head only gets rescaled by piv / prev.  That rescale is deferred:
    rows[i] carries the stamp of the pivot it was last brought up to,
    and its Bareiss value is rows[i] * prev / stamp.  The factor
    telescopes over the skipped steps and the value is a matrix of
    minors, so the one exact_div that brings a row up to date cannot
    fail.  A row is brought up to date only where the step updates it
    anyway (a nonzero head) and once more at the end.  Pivots are
    chosen among up-to-date candidates by _pivot_row, so the pivots,
    the rows and d are those of the eager elimination.  Entries zero
    in both the row and the pivot row stay ZERO without arithmetic.
    """
    rows = [list(r) for r in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    stamps = [ONE] * m
    prev = ONE
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        for i in range(r, m):  # the candidates, brought up to date
            if rows[i][c].terms and stamps[i] is not prev:
                rows[i] = _rescale(rows[i], prev, stamps[i])
                stamps[i] = prev
        i = _pivot_row(rows, r, c)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        stamps[r], stamps[i] = stamps[i], stamps[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(m):
            if i == r or not rows[i][c].terms:
                continue
            row = rows[i]
            if stamps[i] is not prev:
                row = _rescale(row, prev, stamps[i])
            neg = -row[c]
            rows[i] = [dot(((e, piv), (neg, p))).exact_div(prev)
                       if e.terms or p.terms else ZERO for e, p in zip(row, prow)]
            stamps[i] = piv
        stamps[r] = piv
        prev = piv
        pivots.append(c)
        r += 1
    rows = [row if stamp is prev else _rescale(row, prev, stamp)
            for row, stamp in zip(rows, stamps)]
    return rows, pivots, prev


def nullspace(A, ncols=None):
    """Basis of the right kernel, content-stripped vectors over the ring.

    Fraction-free Gauss-Jordan leaves every pivot entry equal to the
    final pivot d, so the kernel vector of a free column f is read off
    in the ring: v[f] = d, v[pivot_k] = -row_k[f].  Free columns in
    ascending order give a deterministic basis.  v is zero at the other
    free columns and at every pivot column after f (row_k is zero left
    of its pivot), so f is the last nonzero coordinate of v."""
    rows, pivots, d = ff_jordan(A)
    n = len(A[0]) if A else (ncols or 0)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n
        vec[fc] = d
        for k, pc in enumerate(pivots):
            vec[pc] = -rows[k][fc]
        basis.append(_strip_vector(vec))
    return basis


def _strip_vector(vec):
    """vec divided by the gcd of its entries' contents and the least
    monomial dividing them all, signed so that the first nonzero entry
    keeps a positive lex-leading coefficient."""
    cs = [v.content() for v in vec if v.terms]
    if not cs:
        return vec
    g = 0
    for c in cs:
        g = gcd(g, c[0])
    mono = qs_monomial(min(c[1] for c in cs), min(c[2] for c in cs), g if cs[0][0] > 0 else -g)
    return [v.exact_div(mono) if v.terms else v for v in vec]
