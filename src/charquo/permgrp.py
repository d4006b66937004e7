"""Permutation-group analysis: parity, transitivity, minimal block
systems, exact orders via stabilizer chains at small degree, and
one-sided Monte-Carlo recognition of giants (groups containing A_n).

Permutations are 0-based image arrays.  Composition is in diagram
order: mult(p, q) applies p first, then q.

Everything that computes works on numpy index arrays and accepts lists:
the giant-recognition path (cycle_lengths, sign, is_transitive,
window_primes, giant_certificate, GiantCertificate, classify_giant),
which scales to orbits of millions of points, and the exact stabilizer
chain (schreier_sims, BSGS) up to ORACLE_BOUND.  Their index dtype is
int32 below 2^31 points (_index_dtype); an int32 array, such as an
orbit's letter permutation, is used as it is, without a copy.  id_perm,
mult, inverse and check_perm stay on plain lists, because readers of a
JSON report compare their results with lists.  minimal_block, which
only tests call, stays a union-find over lists: an array port by
class-label propagation measured slower (11.5 s against 9.2 s per 100
calls at p = 19).

giant_certificate tests its random words two at a time: the caller and
one helper thread run one loop (_first_hit), each drawing the next
word from the one random.Random(seed) under a lock, and the
certificate is the first word in draw order that hits, so a report
equals a one-thread search's.  numpy's gathers release the GIL: the
classification stage at p = 31 took 0.67-0.74 s (per-seed medians)
against 0.97-1.26 s with one thread on a 2-core x86-64 host.  Each
worker composes a word and labels its cycles in three index arrays of
n entries, allocated before the helper starts (12 bytes per point per
worker at int32), by np.take(..., out=, mode="clip"): mode="raise"
would gather into a buffered copy of out.  np.take copies int32
indices to intp, 8 bytes an entry, so the gathers go a slice at a time
(numutil.slices, width 1).  The unchecked gathers cannot make a
certificate unsound: GiantCertificate.revalidate rebuilds the word's
permutation from the generators alone, by checked gathers, and counts
its cycles with cycle_lengths.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from math import factorial, isqrt, prod

import numpy as np

from .numutil import BudgetError, InvariantError, is_prime, slices


def id_perm(n):
    return list(range(n))


def mult(p, q):
    """Apply p first, then q."""
    return [q[i] for i in p]


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


def check_perm(p, n=None):
    if n is not None and len(p) != n:
        raise ValueError(f"degree {len(p)} != {n}")
    seen = bytearray(len(p))
    for i in p:
        if i < 0 or i >= len(p) or seen[i]:
            raise ValueError("not a permutation")
        seen[i] = 1


def _index_dtype(n):
    """The dtype of index arrays on n points: int32 while every index
    fits (it halves the bytes of each random gather; cycle labelling ran
    about 25 % faster), int64 from 2^31 points on."""
    return np.int32 if n < 2 ** 31 else np.int64


def _index_array(g):
    """g as an index array of _index_dtype: an array already of that
    dtype is returned as it is, not copied."""
    return np.asarray(g, dtype=_index_dtype(len(g)))


def _gather(a, idx, out, mode):
    """out[i] = a[idx[i]], by np.take a slice of idx at a time."""
    if len(idx) != len(out):
        raise ValueError(f"{len(idx)} indices for {len(out)} entries")
    for c in slices(len(idx)):
        np.take(a, idx[c], out=out[c], mode=mode)


def _cycle_labels(p, lab=None, tmp=None):
    """Each point labelled by the least point of its cycle, by pointer
    doubling on f = p: lab starts as f, so after k rounds lab[i] is the
    minimum over the 2^k points f(i), f(f(i)), ..., and ceil(log2 n)
    rounds cover every cycle.  f is squared between rounds only, not
    after the last.  Given lab and tmp, arrays of p's dtype and length,
    it allocates no array of its own: the gathers write into them
    unchecked (mode="clip"; mode="raise" buffers out=) and f is squared
    in place of p, which ends overwritten.  Without them it works on a
    copy of p, by checked gathers."""
    f = _index_array(p)
    mode = "clip"
    if lab is None:
        f, lab, tmp, mode = f.copy(), np.empty_like(f), np.empty_like(f), "raise"
    np.copyto(lab, f)
    span = 1
    while span < len(f):
        _gather(lab, f, tmp, mode)
        np.minimum(lab, tmp, out=lab)
        span *= 2
        if span < len(f):
            _gather(f, f, tmp, mode)
            f, tmp = tmp, f
    return lab


def cycle_lengths(p):
    """Multiset of cycle lengths (including fixed points) as a sorted list."""
    sizes = np.bincount(_cycle_labels(p), minlength=len(p))
    return np.sort(sizes[sizes > 0]).tolist()


def sign(p) -> int:
    """Parity via n minus the number of cycles."""
    lab = _cycle_labels(p)
    n_cycles = np.count_nonzero(lab == np.arange(len(lab)))
    return -1 if (len(lab) - n_cycles) % 2 else 1


def is_transitive(gens, n) -> bool:
    """Frontier BFS from point 0 over the generators."""
    if n <= 1:
        return True
    if not len(gens):
        return False
    gens = [_index_array(g) for g in gens]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        new = np.zeros(n, dtype=bool)
        for g in gens:
            new[g[frontier]] = True
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return bool(seen.all())


# -- stabilizer chains ---------------------------------------------------

# Largest degree at which the exact stabilizer chain runs: S_100 and
# A_100 take about 13-15 s on a 2-core x86-64 host, S_50 under 1 s.
# Giant recognition by certificate is the tool beyond it.
ORACLE_BOUND = 100

# Default number of random words the giant-certificate search tries.
WORD_BUDGET = 300


class OracleBoundExceeded(BudgetError):
    pass


def _inverse(g):
    inv = np.empty_like(g)
    inv[g] = np.arange(len(g), dtype=g.dtype)
    return inv


@dataclass
class BSGS:
    """Base and strong generating set.  Level i holds the base point
    base[i], the strong generators gens[i] that fix base[:i], and the
    transversal transversals[i] = {x: (u, u^-1)} of the orbit of base[i]
    under gens[i], u an index array mapping base[i] to x."""

    base: list
    gens: list
    transversals: list

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    def sift(self, h, start=0):
        """Strip h through levels start, start+1, ...: the residue and
        the level it leaves the chain at (len(base) if it passes all)."""
        for j in range(start, len(self.base)):
            entry = self.transversals[j].get(int(h[self.base[j]]))
            if entry is None:
                return h, j
            h = entry[1][h]
        return h, len(self.base)

    def contains(self, g) -> bool:
        h, j = self.sift(_index_array(g))
        return j == len(self.base) and bool((h == np.arange(len(h))).all())


def _extend_orbit(transversal, gens, points, new_gens):
    """Add to a transversal the images of points under new_gens, then
    close the new points under all of gens.  Entries already present
    are never replaced, so a sift that passed the chain still does."""
    while points:
        found = []
        for x in points:
            u = transversal[x][0]
            for s in new_gens:
                y = int(s[x])
                if y not in transversal:
                    us = s[u]
                    transversal[y] = (us, _inverse(us))
                    found.append(y)
        points, new_gens = found, gens


def schreier_sims(gens, n=None) -> BSGS:
    """Sims' incremental Schreier-Sims on index arrays (Seress 2003,
    ch. 4; Holt-Eick-O'Brien 2005, 4.4): exact group order and
    membership.  Each Schreier pair (orbit point, generator index) of
    level i is sifted once, from level i + 1; a non-identity residue
    that leaves the chain at level j becomes a strong generator of
    levels i + 1 .. j, opening a new level when j = len(base).  The
    deepest pending level is processed next.  Refuses degrees above
    ORACLE_BOUND.
    """
    gens = [_index_array(g) for g in gens]
    if n is None:
        n = len(gens[0]) if gens else 1
    if n > ORACLE_BOUND:
        raise OracleBoundExceeded(f"degree {n} exceeds oracle bound {ORACLE_BOUND}")
    for g in gens:
        check_perm(g, n)
    ident = np.arange(n, dtype=_index_dtype(n))
    chain = BSGS([], [], [])
    done: list = []  # per level: the Schreier pairs already sifted

    def add(h, lo, hi):
        if hi == len(chain.base):
            point = int(np.flatnonzero(h != ident)[0])
            chain.base.append(point)
            chain.gens.append([])
            chain.transversals.append({point: (ident, ident)})
            done.append(set())
        for i in range(lo, hi + 1):
            chain.gens[i].append(h)
            _extend_orbit(chain.transversals[i], chain.gens[i],
                          list(chain.transversals[i]), [h])

    def residue(h, j):
        return j < len(chain.base) or not (h == ident).all()

    def first_residue(i):
        t = chain.transversals[i]
        for x, (u, _) in list(t.items()):
            for k, s in enumerate(chain.gens[i]):
                if (x, k) not in done[i]:
                    done[i].add((x, k))
                    h, j = chain.sift(t[int(s[x])][1][s[u]], i + 1)
                    if residue(h, j):
                        return h, j
        return None

    for g in gens:
        h, j = chain.sift(g)
        if residue(h, j):
            add(h, 0, j)
    i = len(chain.base) - 1
    while i >= 0:
        found = first_residue(i)
        if found is None:
            i -= 1
        else:
            add(found[0], i + 1, found[1])
            i = found[1]
    return chain


# -- block systems -------------------------------------------------------

def minimal_block(gens, alpha, beta, n):
    """Finest block system whose block contains {alpha, beta}.

    Union-find refinement (Atkinson).  Returns the list of blocks as
    sorted tuples, or None when the only such system is the trivial
    one-block partition.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        u, v = queue.pop()
        for g in gens:
            a, b = g[u], g[v]
            if union(a, b):
                queue.append((a, b))

    blocks: dict = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    if len(blocks) == 1:
        return None
    return sorted(tuple(b) for b in blocks.values())


# -- giant recognition ---------------------------------------------------

class CertificateError(InvariantError):
    """A certificate found by the search failed its own revalidation."""


def _inverses(gens):
    """The inverse array of each index-array generator; an involution
    (g[g] = id) is its own, the very array, which is how _word_perm
    tells involutions apart."""
    return [g if (g.take(g) == np.arange(len(g))).all() else _inverse(g) for g in gens]


def _word_perm(word, gens, invs, n, out=None, tmp=None):
    """Permutation of a word [(index, +-1), ...] over index-array generators
    and their inverses (leftmost letter applied first; invs as
    _inverses builds them).  The word is freely reduced first: adjacent
    (i, e)(i, -e) cancel, and so do two adjacent letters of an
    involution.  The rest is composed by gathers from the last letter
    back: out <- out[g].  Each gather then reads out at a generator's
    images, which for orbit letters lie near their points; g[out] would
    read g at the scattered entries of a long product (about 1.6x slower
    on p = 31 orbit letters).  The product is composed in two arrays of
    n entries, out and tmp, and returned in one of them.  Given them, of
    the generators' dtype, the gathers are unchecked (mode="clip";
    mode="raise" buffers out=); without them two are allocated and every
    gather is checked.  The first letter is copied, not gathered from the
    identity; revalidate still range-checks every entry of the product,
    by the checked gathers of cycle_lengths, which index by it."""
    reduced = []
    for idx, e in word:
        if reduced and reduced[-1][0] == idx and (reduced[-1][1] == -e
                                                  or invs[idx] is gens[idx]):
            reduced.pop()
        else:
            reduced.append((idx, e))
    letters = [gens[idx] if e == 1 else invs[idx] for idx, e in reversed(reduced)]
    mode = "clip"
    if out is None:
        out, tmp, mode = np.empty(n, _index_dtype(n)), np.empty(n, _index_dtype(n)), "raise"
    if not letters:
        out[:] = np.arange(n)
        return out
    np.copyto(out, letters[0])  # the first gather reads the identity
    for g in letters[1:]:
        _gather(out, g, tmp, mode)
        out, tmp = tmp, out
    return out


@dataclass
class GiantCertificate:
    """A sound witness that a transitive group contains A_n: a word in
    the generators whose permutation has a cycle of prime length q with
    n/2 < q < n - 2."""

    word: list  # [(generator index, +-1), ...]
    q: int
    n: int

    def permutation(self, gens):
        """The word's permutation as an index array (int32 below 2^31
        points)."""
        gens = [_index_array(g) for g in gens]
        return _word_perm(self.word, gens, _inverses(gens), self.n)

    def revalidate(self, gens) -> bool:
        if not is_prime(self.q) or not (2 * self.q > self.n and self.q < self.n - 2):
            return False
        return self.q in cycle_lengths(self.permutation(gens))


@dataclass
class Inconclusive:
    reason: str


def window_primes(n):
    """Primes q with n/2 < q < n - 2, by a sieve of Eratosthenes."""
    lo, hi = n // 2 + 1, n - 2
    if hi <= max(lo, 2):
        return []
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(hi - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return (np.flatnonzero(sieve[lo:]) + lo).tolist()


def _random_word(n_gens, rng):
    # geometric length with mean ~60, capped; long words mix, short ones
    # keep the sample cheap
    length = 1
    while rng.random() > 1.0 / 60.0 and length < 400:
        length += 1
    return [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(length)]


def _window_cycle(word, gens, invs, primes, a, b, c):
    """The length of the word's cycle whose length is in primes (all
    above n/2), or None, composed and labelled in the three index
    arrays a, b and c of n entries.  At most one cycle is longer than
    n/2, and it owns more than half of the labels, so after partitioning
    the labels at n // 2 the median is its label: its length is that
    label's count, with no bincount of every label."""
    n = len(a)
    perm = _word_perm(word, gens, invs, n, a, b)
    lab = _cycle_labels(perm, c, b if perm is a else a)
    lab.partition(n // 2)
    length = int(np.count_nonzero(lab == lab[n // 2]))
    return length if length in primes else None


def _first_hit(gens, invs, n, primes, rng, budget):
    """(word, q) of the first of budget random words drawn from rng
    whose permutation has a cycle of a length q in primes, or None.

    The caller and one helper thread run the same loop, each in its own
    three index arrays, allocated here: take the next draw index and
    draw its word under the lock, so word i is rng's i-th draw whichever
    thread takes it, then test it outside the lock (numpy's gathers
    release the GIL).  A worker stops at its next draw once a word has
    hit.  Every index drawn by then is tested to the end, so the lowest
    index that hit is the first hit in draw order, the word a one-thread
    search returns.  Two workers and no more: the caller is one of them,
    so there are never more runnable threads than a 2-core host has
    cores, and signal handlers keep running on the main thread.  The
    helper calls nothing that a tracer may wrap (cycle_lengths, sign,
    ...).  An exception in either worker stops the other; the helper's
    is raised here as it is, and the helper is joined before this
    returns or raises."""
    lock = threading.Lock()
    drawn, hit, stop, errors = 0, None, False, []

    def work(bufs):
        nonlocal drawn, hit
        while True:
            with lock:
                if stop or errors or hit is not None or drawn >= budget:
                    return
                i, drawn = drawn, drawn + 1
                word = _random_word(len(gens), rng)
            q = _window_cycle(word, gens, invs, primes, *bufs)
            if q is not None:
                with lock:
                    if hit is None or i < hit[0]:
                        hit = (i, word, q)

    def helper(bufs):
        try:
            work(bufs)
        except BaseException as e:  # handed to the caller as it is
            errors.append(e)

    own, other = ([np.empty(n, dtype=_index_dtype(n)) for _ in range(3)] for _ in range(2))
    thread = threading.Thread(target=helper, args=(other,), daemon=True)
    thread.start()
    try:
        work(own)
    finally:
        stop = True
        thread.join()
    if errors:
        raise errors[0]
    return None if hit is None else hit[1:]


def giant_certificate(gens, n, seed=0, budget=WORD_BUDGET):
    """Monte-Carlo search for a prime-cycle certificate.

    One-sided: returns a GiantCertificate on success, otherwise an
    Inconclusive (never a negative claim).  Raises CertificateError if
    the certificate found fails revalidation.
    """
    primes = set(window_primes(n))
    if not primes:
        return Inconclusive("n too small - use schreier_sims")
    if not is_transitive(gens, n):
        return Inconclusive("generators are not transitive")
    gens = [_index_array(g) for g in gens]
    # revalidate builds its own inverses, from the generators alone
    found = _first_hit(gens, _inverses(gens), n, primes, random.Random(seed), budget)
    if found is None:
        return Inconclusive(f"budget of {budget} random words exhausted")
    word, q = found
    cert = GiantCertificate(word, q, n)
    if not cert.revalidate(gens):
        raise CertificateError(f"certificate word of {len(word)} letters "
                               f"fails revalidation (q = {q}, n = {n})")
    return cert


@dataclass
class GiantClassification:
    kind: str  # "Alternating" | "Symmetric" | "Inconclusive"
    generator_signs: list  # sign of each generator, in order
    certificate: object = None  # GiantCertificate | None
    order: object = None  # exact order when the oracle ran
    reason: str = ""


def classify_giant(gens, n, seed=0, budget=WORD_BUDGET) -> GiantClassification:
    """Recognize the full alternating or symmetric group.

    Certificate path first (sound for any degree).  When it comes back
    empty and n <= ORACLE_BOUND, the exact stabilizer chain decides from
    the group order; beyond that bound the answer is Inconclusive.  The
    sign of each generator is computed once and returned on every path.
    """
    gens = [_index_array(g) for g in gens]
    signs = [sign(g) for g in gens]
    cert = giant_certificate(gens, n, seed=seed, budget=budget)
    if isinstance(cert, GiantCertificate):
        kind = "Alternating" if all(s == 1 for s in signs) else "Symmetric"
        return GiantClassification(kind, signs, certificate=cert)
    if n <= ORACLE_BOUND:
        bsgs = schreier_sims(gens, n)
        if bsgs.order == factorial(n):
            return GiantClassification("Symmetric", signs, order=bsgs.order)
        if 2 * bsgs.order == factorial(n):
            return GiantClassification("Alternating", signs, order=bsgs.order)
        return GiantClassification("Inconclusive", signs, order=bsgs.order,
                                   reason="exact order below giant size")
    return GiantClassification("Inconclusive", signs, reason=cert.reason)
