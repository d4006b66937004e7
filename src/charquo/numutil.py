"""Small integer number theory (primality, factoring), the package's
error bases BudgetError (exit code 2) and InvariantError (exit code 3),
and the slice size of every memory-bounded loop (slices).

Deterministic Miller-Rabin is exact below psi_13 (about 3.3 * 10^24)
and refuses larger inputs; factoring is trial division plus Pollard rho, enough for
the torus orders (p -+ 1)/2 that the rest of the package feeds it.
"""

from math import gcd


class InvariantError(ArithmeticError):
    """An internal invariant of a computation failed: a bug, never bad
    input.  The message names the stage and the prime; the command line
    reports it with exit code 3.  These checks are explicit raises, not
    asserts, so they also run under python -O."""


class BudgetError(RuntimeError):
    """A computation refused or exhausted its size budget; the command
    line reports it with exit code 2."""


# The first 13 primes as witnesses decide primality exactly below
# psi_13, the least strong pseudoprime to all of them.  Twelve are not
# enough: psi_12 = 318665857834031151167461 = 399165290221 *
# 798330580441 passes the witnesses 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# int64 entries (1 MiB) held by each temporary of a slice; results never
# depend on it.  On a 2-core x86-64 host, at p = 31, BFS slices of 16 384
# rows (width 16) raised the BFS peak by about 5 MB against 8 192, and
# 4 096 rows the whole run's by about 3 MB.  2^20 entries put the p = 19
# orbit_exact_keys tracemalloc peak at 25.5 MB (4.7 MB at 2^17, for a
# 0.52 MB result) and made oracle-p19's peak RSS follow the length of its
# working-directory path: median 73.7 MB, 79.4-79.7 MB at 8 of the
# lengths 30-129, against median 68.9 MB and maximum 69.3 MB at 2^17.
SLICE_ENTRIES = 1 << 17


def slices(n, width=1):
    """Slices covering range(n), max(1, SLICE_ENTRIES // width) items
    each, for a loop whose temporaries hold width int64 entries per
    item.  SLICE_ENTRIES is read at each call."""
    step = max(1, SLICE_ENTRIES // width)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below
    psi_13 = 3317044064679887385961981; ValueError for larger n."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def next_prime(n: int) -> int:
    """Least prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n
