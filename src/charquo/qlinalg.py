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

from .laurent import ONE, ZERO, LaurentPoly2


def mat_mul(A, B):
    """A B.  Each nonzero a = A[i][t], in t order, adds a * B[t][j] to
    entry j of row i over the nonzero B[t][j]: the terms and their order
    are those of the dense triple loop."""
    n = len(B[0]) if B else 0
    Bnz = [[(j, b) for j, b in enumerate(row) if b.terms] for row in B]
    out = []
    for Ai in A:
        row = [ZERO] * n
        for a, bt in zip(Ai, Bnz):
            if a.terms:
                for j, b in bt:
                    row[j] = row[j] + a * b
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
            head = row[c]
            new = []
            for e, p in zip(row, prow):
                if p.terms:
                    v = e * piv - head * p if e.terms else -(head * p)
                elif e.terms:
                    v = e * piv
                else:
                    new.append(ZERO)
                    continue
                new.append(v.exact_div(prev))
            rows[i] = new
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
    nonzero = [v for v in vec if v.terms]
    if not nonzero:
        return vec
    from math import gcd as igcd
    g = 0
    eq = es = None
    for v in nonzero:
        cg, ceq, ces = v.content()
        g = igcd(g, abs(cg))
        eq = ceq if eq is None else min(eq, ceq)
        es = ces if es is None else min(es, ces)
    lead = None
    for v in vec:
        if v.terms:
            lead = v.terms[max(v.terms)]
            break
    if lead < 0:
        g = -g
    mono = LaurentPoly2.monomial(g, eq, es)
    return [v.exact_div(mono) if v.terms else v for v in vec]

