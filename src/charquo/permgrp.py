"""Permutation-group analysis: parity, transitivity, minimal block
systems, exact orders via stabilizer chains at small degree, and
one-sided Monte-Carlo recognition of giants (groups containing A_n).

Permutations are 0-based image arrays.  Composition is in diagram
order: mult(p, q) applies p first, then q.

Everything that computes works on int32 index arrays and accepts lists:
the giant-recognition path (cycle_lengths, sign, is_transitive,
window_primes, giant_certificate, GiantCertificate, classify_giant),
which scales to orbits of millions of points, and the exact stabilizer
chain (schreier_sims, BSGS) up to ORACLE_BOUND.  Each passes every
permutation it is given through check_perm, once per call
(classify_giant leaves that to sign and giant_certificate), which
refuses a wrong length, an entry out of range or a repeated image by
name and passes an int32 array, such as an orbit's letter permutation,
without a copy.  Behind it the kernels (_gather and its callers
_cycle_labels, _word_perm and _power) index only by checked
permutations and their products, which cannot leave the range, so
their gathers are unchecked.  id_perm, mult and inverse stay on plain
lists, because readers of a JSON report compare their results with
lists.  minimal_block, which only tests call, stays a union-find over
lists: an array port by class-label propagation measured slower (11.5 s
against 9.2 s per 100 calls at p = 19).

giant_certificate tests its random words two at a time: the caller and
one helper thread run one loop (_first_hit), each drawing the next
word from the one random.Random(seed) under a lock, and the
certificate is the first word in draw order that hits, so a report
equals a one-thread search's.  numpy's gathers release the GIL.  Each
worker composes a word and tests its cycles in three int32 arrays of
n entries, allocated before the helper starts (12 bytes per point per
worker), by np.take(..., out=, mode="clip"): mode="raise" would gather
into a buffered copy of out.  np.take copies int32 indices to intp, 8
bytes an entry, so the gathers go a slice at a time (numutil.slices,
width 1).  GiantCertificate.revalidate rebuilds the word's permutation
from the generators alone, each checked by check_perm, and counts its
cycles with cycle_lengths.

The cycle tests are exact and stop early.  Pointer doubling
(_cycle_labels, behind cycle_lengths and sign) ends at the first round
that lowers no label, about log2 of the longest cycle rounds instead of
ceil(log2 n).  A word's test (_window_cycle) first probes for the one
cycle longer than n/2: the length of point 0's cycle by Shanks'
baby-step giant-step, with at most s = 2^k > sqrt(n) baby steps on the
permutation and n/s giant steps on its s-th power (k squarings), then,
while the cycles measured cover less than half of the points, that of
the least point outside them, PROBES cycles at most; only a word the
probes leave undecided has its cycles labelled.  Each path returns the
length of the one cycle longer than n/2 when it is a window prime and
None otherwise, so every word gets the answer it got from labels
alone, and the first hit, the certificate and every report are
unchanged.  At p = 31 the classification stage took 0.38-0.52 s
(per-seed medians over the six benchmark seeds) against 0.56-0.76 s
with labels alone, and 0.97-1.26 s with one thread and labels alone,
on a 2-core x86-64 host.
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
    """p as an int32 index array, checked to be a permutation of degree n
    (len(p) when n is None); ValueError names the defect: a degree not
    below 2^31, a wrong length, entries that are not integers, an entry
    out of range or a repeated image.  An int32 array is returned as it
    is, not copied."""
    a = np.asarray(p)
    n = len(a) if n is None else n
    if n >= 2 ** 31:
        raise ValueError(f"degree {n} is not below 2^31, the bound of int32 indices")
    if a.ndim != 1 or len(a) != n:
        raise ValueError(f"wrong length: {a.size} entries for degree {n}")
    if n and a.dtype.kind not in "iu":
        raise ValueError(f"entries of dtype {a.dtype} are not integers")
    if n and (a.min() < 0 or a.max() >= n):
        i = int(np.flatnonzero((a < 0) | (a >= n))[0])
        raise ValueError(f"entry out of range: {a[i]} at point {i}, degree {n}")
    a = a.astype(np.int32, copy=False)
    hit = np.zeros(n, dtype=bool)
    for c in slices(n):  # the intp copy of a slice of indices
        hit[a[c]] = True
    if not hit.all():  # k is the first point whose image an earlier one has
        k = int(np.setdiff1d(np.arange(n), np.unique(a, return_index=True)[1])[0])
        raise ValueError(f"repeated image: {a[k]} at points {np.argmax(a == a[k])} and {k}")
    return a


def _gather(a, idx, out):
    """out[i] = a[idx[i]], by np.take a slice of idx at a time, unchecked
    (mode="clip"; mode="raise" would gather into a buffered copy of out).
    Precondition: every entry of idx is below len(a).  The callers keep
    it: idx is a permutation of degree len(a) that check_perm accepted,
    or a product of such."""
    for c in slices(len(idx)):
        np.take(a, idx[c], out=out[c], mode="clip")


def _cycle_labels(f, lab, tmp):
    """Each point labelled by the least point of its cycle, by pointer
    doubling on the permutation f: lab starts as f, so after k rounds
    lab[i] is the minimum over the 2^k points f(i), f(f(i)), ..., and
    ceil(log2 n) rounds cover every cycle.  Labelling stops earlier, at
    the first round that lowers no label: lab[i] <= lab[g(i)] for every
    i, where g = f^(2^k), makes lab constant on each orbit of g, and the
    windows of that orbit's points cover their whole cycle of f, so each
    label is already the least point of its cycle.  That takes about
    log2 of the longest cycle rounds (2 for an involution).  f is
    squared between rounds only, not after the last.  f, lab and tmp are
    int32 arrays of one length, and nothing else is allocated but one
    slice of comparisons at a time: f is squared in place and ends
    overwritten, and lab is returned."""
    np.copyto(lab, f)
    span = 1
    while span < len(f):
        _gather(lab, f, tmp)
        if not any((tmp[c] < lab[c]).any() for c in slices(len(f))):
            break
        np.minimum(lab, tmp, out=lab)
        span *= 2
        if span < len(f):
            _gather(f, f, tmp)
            f, tmp = tmp, f
    return lab


def cycle_lengths(p):
    """Multiset of cycle lengths (including fixed points) as a sorted list."""
    f = check_perm(p)
    sizes = np.bincount(_cycle_labels(f.copy(), np.empty_like(f), np.empty_like(f)),
                        minlength=len(f))
    return np.sort(sizes[sizes > 0]).tolist()


def sign(p) -> int:
    """Parity via n minus the number of cycles."""
    return -1 if (len(p) - len(cycle_lengths(p))) % 2 else 1


def is_transitive(gens, n) -> bool:
    """Frontier BFS from point 0 over the generators."""
    gens = [check_perm(g, n) for g in gens]
    if n <= 1:
        return True
    if not gens:
        return False
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

# Cycles _window_cycle measures one at a time, looking for the one
# longer than n/2, before it labels all of a word's cycles.  A uniform
# random permutation has one with probability about ln 2, and point 0
# lies in it with probability above 1/2 then; each probe costs O(sqrt n)
# Python steps and at most n/s small gathers, the labels about
# 2 log2(longest cycle) gathers of n entries.
PROBES = 3


class OracleBoundExceeded(BudgetError):
    pass


def _inverse(g):
    inv = np.empty_like(g)
    inv[g] = np.arange(len(g), dtype=g.dtype)
    return inv


@dataclass
class BSGS:
    """Base and strong generating set of a group of degree n.  Level i
    holds the base point base[i], the strong generators gens[i] that fix
    base[:i], and the transversal transversals[i] = {x: (u, u^-1)} of the
    orbit of base[i] under gens[i], u an index array mapping base[i] to
    x."""

    n: int
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
        h, j = self.sift(check_perm(g, self.n))
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
    if n is None:
        n = len(gens[0]) if gens else 1
    if n > ORACLE_BOUND:
        raise OracleBoundExceeded(f"degree {n} exceeds oracle bound {ORACLE_BOUND}")
    gens = [check_perm(g, n) for g in gens]
    ident = np.arange(n, dtype=np.int32)
    chain = BSGS(n, [], [], [])
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


def _word_perm(word, gens, invs, out, tmp):
    """Permutation of a word [(index, +-1), ...] over checked generators
    and their inverses (leftmost letter applied first; invs as
    _inverses builds them).  The word is freely reduced first: adjacent
    (i, e)(i, -e) cancel, and so do two adjacent letters of an
    involution.  The rest is composed by gathers from the last letter
    back: out <- out[g].  Each gather then reads out at a generator's
    images, which for orbit letters lie near their points; g[out] would
    read g at the scattered entries of a long product (about 1.6x slower
    on p = 31 orbit letters).  The product is composed in the two int32
    arrays out and tmp of n entries and returned in one of them.  The
    first letter is copied, not gathered from the identity."""
    reduced = []
    for idx, e in word:
        if reduced and reduced[-1][0] == idx and (reduced[-1][1] == -e
                                                  or invs[idx] is gens[idx]):
            reduced.pop()
        else:
            reduced.append((idx, e))
    letters = [gens[idx] if e == 1 else invs[idx] for idx, e in reversed(reduced)]
    if not letters:
        out[:] = np.arange(len(out))
        return out
    np.copyto(out, letters[0])  # the first gather reads the identity
    for g in letters[1:]:
        _gather(out, g, tmp)
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
        """The word's permutation as an int32 array, composed from the
        generators, each checked to be a permutation of degree n."""
        gens = [check_perm(g, self.n) for g in gens]
        out, tmp = (np.empty(self.n, dtype=np.int32) for _ in range(2))
        return _word_perm(self.word, gens, _inverses(gens), out, tmp)

    def revalidate(self, gens) -> bool:
        """Whether q is a prime in the window and a cycle length of the
        word's permutation, rebuilt from the generators alone.  The
        product of checked permutations of degree n is one, so none of
        its unchecked gathers leaves the range."""
        perm = self.permutation(gens)
        if not is_prime(self.q) or not (2 * self.q > self.n and self.q < self.n - 2):
            return False
        return self.q in cycle_lengths(perm)


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


def _power(perm, k, x, y):
    """perm^(2^k) by k >= 1 squarings into the int32 arrays x and y in
    turn, returned in one of them; perm itself is kept."""
    f = perm
    for i in range(k):
        out = (x, y)[i % 2]
        _gather(f, f, out)
        f = out
    return f


def _baby_steps(perm, x, s):
    """The points x, perm(x), perm^2(x), ... of x's cycle in order, up to
    the return to x or s points, whichever comes first."""
    baby, y = [x], perm.item(x)
    while y != x and len(baby) < s:
        baby.append(y)
        y = perm.item(y)
    return baby


def _giant_steps(power, baby):
    """(t, L): baby holds the first s points of a cycle of L >= s points
    of a permutation perm, baby[j] = perm^j(x), and power is perm^s.
    The giant steps perm^s(x), perm^2s(x), ... first meet a baby point
    at step t = ceil(L / s), at baby[j] with j = t s - L (Shanks'
    baby-step giant-step)."""
    s, place = len(baby), {y: j for j, y in enumerate(baby)}
    t, y = 1, power.item(baby[0])
    while y not in place:
        t, y = t + 1, power.item(y)
    return t, t * s - place[y]


def _window_cycle(word, gens, invs, primes, a, b, c):
    """The length of the word's cycle whose length is in primes (all
    above n/2), or None, composed in the three index arrays a, b and c
    of n entries.  At most one cycle is longer than n/2, and each path
    below finds it or shows there is none, so the answer is the same
    whichever path gives it.

    First it probes: the length L of one point's cycle, by at most s
    baby steps on the word's permutation and at most n/s giant steps on
    its s-th power, s = 2^k > sqrt(n), the power made by k squarings
    into the two arrays the permutation leaves free once some probe
    meets a cycle of s points or more.  If 2L > n, that is the one long
    cycle.  Otherwise its points are marked in an n-byte array (the baby
    points, then their images under the power, at most n/s block
    gathers of s points), and if the cycles probed cover half of the
    points, no cycle longer than n/2 fits in the rest.  Else the next
    probe starts from the least unmarked point, PROBES probes at most,
    each of at most s + n/s Python steps and a dict of at most s points.
    Undecided, it labels the cycles (_cycle_labels): the long cycle, if
    any, owns more than half of the labels, so after partitioning the
    labels at n // 2 the median is its label and its length is that
    label's count, with no bincount of every label."""
    n = len(a)
    perm = _word_perm(word, gens, invs, a, b)
    free = (c, b if perm is a else a)
    k = isqrt(n).bit_length()
    s = 1 << k
    power = mark = None
    start = covered = 0
    for probe in range(PROBES):
        baby = _baby_steps(perm, start, s)
        blocks, length = 1, len(baby)
        if length == s:
            if power is None:
                power = _power(perm, k, *free)
            blocks, length = _giant_steps(power, baby)
        if 2 * length > n:
            return length if length in primes else None
        covered += length
        if 2 * covered >= n:
            return None
        if probe + 1 == PROBES:
            break
        if mark is None:
            mark = np.zeros(n, dtype=bool)
        block = np.array(baby)
        mark[block] = True
        for _ in range(blocks - 1):
            block = power[block]
            mark[block] = True
        start = int(np.argmin(mark))
    lab = _cycle_labels(perm, *free)
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
    ...; tests/test_layout.py walks what it reaches).  An exception in
    either worker stops the other; the helper's is raised here as it
    is, and the helper is joined before this returns or raises."""
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

    own, other = ([np.empty(n, dtype=np.int32) for _ in range(3)] for _ in range(2))
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
    gens = [check_perm(g, n) for g in gens]
    primes = set(window_primes(n))
    if not primes:
        return Inconclusive("n too small - use schreier_sims")
    if not is_transitive(gens, n):
        return Inconclusive("generators are not transitive")
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
