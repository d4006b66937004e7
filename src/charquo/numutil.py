"""Small integer number theory (primality, factoring), the package's
error bases BudgetError (exit code 2) and InvariantError (exit code 3),
the slice size of every memory-bounded loop (slices), the one way to
run a job in a side process (SideJob) and the one way to write an
output file (write_atomic: staged beside its target, whose path its
errors name).

Deterministic Miller-Rabin is exact below psi_13 (about 3.3 * 10^24)
and refuses larger inputs; factoring is trial division plus Pollard rho, enough for
the torus orders (p -+ 1)/2 that the rest of the package feeds it.
"""

import contextlib
import os
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
# orbit_exact_keys tracemalloc peak at 25.5 MB (4.5 MB at 2^17, for a
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


@contextlib.contextmanager
def naming(path):
    """Within the block, an OSError about a file names path instead: a
    file written beside path and then moved onto it fails with the path
    the user gave, not the staged name."""
    try:
        yield
    except OSError as e:
        if e.filename is None:
            raise
        raise OSError(e.errno, e.strerror, path) from e


def write_atomic(path, write, mode):
    """write(fh) on a new file beside path, opened in mode "t" (text) or
    "b" (binary) and created under the umask, which replaces path once
    it is written and is removed if the write fails; an OSError names
    path, not that file."""
    tmp = f"{path}.{os.urandom(4).hex()}"
    with naming(path):
        fh = open(tmp, "x" + mode)
        try:
            with fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


class SideJobKilled(BudgetError):
    """A side job's process was ended by a signal, most often SIGKILL
    from the kernel's out-of-memory killer; the command line reports it
    with exit code 2, as it does a MemoryError."""


class SideJob:
    """fn(*args) run in a forked child process while the caller goes on.

    result() waits for the child and returns fn's value, or raises its
    exception: the same type with the same message, so the caller's
    error handling does not depend on where the job ran.  A child ended
    by a signal raises SideJobKilled, naming the job and the signal.
    close() (also on leaving a with block) kills a child that has not
    been waited for and reaps it, so no process outlives its SideJob.

    The child writes only the pickled outcome to its pipe and ends with
    os._exit: no atexit handler, buffered stdio or finally block of the
    caller runs in it.  It runs in a copy of a process that may hold
    threads (OpenBLAS's pool, once numpy is imported), so fn must not
    take a lock that such a thread could hold, nor call a BLAS product.
    Where os.fork does not exist, fn runs inline when the job is
    created and its exception is raised by result().

    what names the job in SideJobKilled and in the InvariantError of a
    child that sent no outcome, e.g. "the verification job at p = 31".
    """

    def __init__(self, what, fn, *args):
        import pickle  # loaded by numpy anyway; not on the import path of qrep

        self.what, self._pid, self._fd = what, None, None
        if not hasattr(os, "fork"):
            try:
                self._outcome = (True, fn(*args))
            except Exception as e:
                self._outcome = (False, e)
            return
        r, w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(r)
                import gc
                gc.freeze()  # no object of the caller's is finalized here too
                try:
                    outcome = (True, fn(*args))
                except BaseException as e:
                    outcome = (False, e)
                try:
                    data = pickle.dumps(outcome)
                    pickle.loads(data)  # an exception whose class cannot be rebuilt
                except Exception as e:
                    kind = "value" if outcome[0] else "exception"
                    data = pickle.dumps((False, InvariantError(
                        f"{what}: its {kind} {type(outcome[1]).__name__}: {outcome[1]} "
                        f"cannot be sent back ({type(e).__name__}: {e})")))
                view = memoryview(data)
                while view:
                    view = view[os.write(w, view):]
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._pid, self._fd = pid, r

    def result(self):
        """fn's value, or its exception raised here."""
        import pickle

        if self._fd is None and self._pid is None:
            ok, value = self._outcome
        else:
            chunks = []
            while chunk := os.read(self._fd, 1 << 16):
                chunks.append(chunk)
            status = self._reap()
            if os.WIFSIGNALED(status):
                import signal
                sig = os.WTERMSIG(status)
                name = signal.Signals(sig).name if sig in set(signal.Signals) else "SIGRT"
                raise SideJobKilled(f"{self.what} was killed by signal {name} ({sig})")
            if os.waitstatus_to_exitcode(status) != 0 or not chunks:
                raise InvariantError(f"{self.what} ended with exit status "
                                     f"{os.waitstatus_to_exitcode(status)} and no outcome")
            ok, value = self._outcome = pickle.loads(b"".join(chunks))
        if ok:
            return value
        raise value

    def close(self):
        """Kill the child unless it has been waited for, and reap it."""
        if self._pid is not None:
            import signal
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return status

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
        stack += [d, m // d]
    return out


def next_prime(n: int) -> int:
    """Least prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n
