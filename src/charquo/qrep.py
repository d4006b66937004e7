"""Braid-group representations on highest-weight spaces of the integral
quantum group, exact over Z[q^+-1, s^+-1], with specialization to
finite fields.

The module V has basis (v_j) with K v_j = s q^-2j v_j, E v_j = v_{j-1}
and divided powers F^(n); the braid generator sigma_i acts on the n-fold
tensor power through the R-matrix on factors (i, i+1).  The weight
space of tensors with index sum l is V_{n,l}; the highest-weight space
W_{n,l} = ker(E) inside it carries the representation, of dimension
binom(n+l-2, l).

Every matrix here is a ring matrix, with no denominator: the braid
matrices are integral on the W basis (see braid_matrices), the W_{2,l}
eigenvalue is their one entry at n = 2, and the twisted hermitian form
H is kept as num(H), its one scalar denominator cleared, since every
identity checked on it is homogeneous in H.

The checks read their answers off what is already built: the W basis
ends at distinct free columns (_free_columns), which gives each
braid-matrix row and each filtration dimension without elimination,
and K, E and F^(n) send v_j to a ring multiple of one basis vector, so
each operator relation on v_j is one ring identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from operator import mul

from .laurent import ONE, ZERO, LaurentPoly2, qbinom, qfact, qs_monomial, unpack
from .numutil import BudgetError, InvariantError, is_prime
from .qlinalg import mat_mul, mat_transpose, nullspace


# -- weight bases -----------------------------------------------------------

def compositions(n: int, ell: int):
    """All (a_1..a_n) with a_i >= 0 summing to ell, in lexicographic order."""
    if n == 0:
        return [()] if ell == 0 else []
    if n == 1:
        return [(ell,)]
    out = []
    for a in range(ell + 1):
        for rest in compositions(n - 1, ell - a):
            out.append((a,) + rest)
    return out


def weight_dim(n, ell):
    return comb(n + ell - 1, ell)


def hw_dim(n, ell):
    return comb(n + ell - 2, ell)


# -- the R-matrix ------------------------------------------------------------

@cache
def _torus_factor(count: int, j: int) -> LaurentPoly2:
    """prod_{k=0}^{count-1} (s q^(-k-j) - s^-1 q^(k+j)), memoised like
    laurent.qbinom."""
    out = ONE
    for k in range(count):
        out = out * (qs_monomial(-k - j, 1) - qs_monomial(k + j, -1))
    return out


def r_matrix(i: int, j: int):
    """R(v_i (x) v_j) as [((j+k, i-k), coefficient)] for k = 0..i."""
    out = []
    for k in range(i + 1):
        coeff = qs_monomial(2 * (i - k) * (j + k) + k * (k - 1) // 2, -i - j)
        coeff = coeff * qbinom(k + j, j) * _torus_factor(k, j)
        out.append(((j + k, i - k), coeff))
    return out


def sigma_on_V(n: int, ell: int, i: int):
    """Matrix of sigma_i on the weight space V_{n, ell} (columns act)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for B_{n}")
    comps = compositions(n, ell)
    index = {c: k for k, c in enumerate(comps)}
    D = len(comps)
    M = [[ZERO for _ in range(D)] for _ in range(D)]
    pos = i - 1
    for col, a in enumerate(comps):
        for (t1, t2), coeff in r_matrix(a[pos], a[pos + 1]):
            b = a[:pos] + (t1, t2) + a[pos + 2:]
            M[index[b]][col] = M[index[b]][col] + coeff
    return M


# -- quantum-group operators -------------------------------------------------

def e_matrix(n: int, ell: int):
    """E: V_{n, ell} -> V_{n, ell-1} through the iterated coproduct."""
    rows = compositions(n, ell - 1) if ell >= 1 else []
    cols = compositions(n, ell)
    index = {c: k for k, c in enumerate(rows)}
    M = [[ZERO for _ in cols] for _ in rows]
    for col, a in enumerate(cols):
        for pos in range(n):
            if a[pos] == 0:
                continue
            b = a[:pos] + (a[pos] - 1,) + a[pos + 1:]
            tail = sum(a[pos + 1:])
            coeff = qs_monomial(-2 * tail, n - 1 - pos)
            M[index[b]][col] = M[index[b]][col] + coeff
    return M


def highest_weight_basis(n: int, ell: int):
    """Basis of W_{n, ell} = ker(E) as V-coordinate vectors over the ring,
    content-stripped; dimension binom(n+ell-2, ell) or an internal error."""
    if n < 2 or ell < 0:
        raise ValueError("need n >= 2, ell >= 0")
    E = e_matrix(n, ell)  # no rows at ell = 0: every unit vector is in ker(E)
    basis = nullspace(E, ncols=weight_dim(n, ell))
    if len(basis) != hw_dim(n, ell):
        raise ArithmeticError(
            f"kernel dimension {len(basis)} != binom({n + ell - 2},{ell})")
    if any(e.terms for row in mat_mul(E, mat_transpose(basis)) for e in row):
        raise InvariantError(f"highest-weight basis of W_{n},{ell}: "
                             "a basis vector is not killed by E")
    return basis


# -- the representation -------------------------------------------------------

@dataclass
class RepMatrices:
    n: int
    ell: int
    dim: int
    basis: list          # W basis vectors as V-coordinates over the ring
    sigma: dict          # generator index -> ring matrix on the W basis
    sigma_v: dict        # generator index -> sigma_on_V(n, ell, i), built once


def braid_relations_hold(sigma: dict, n: int, mul) -> bool:
    """Check of all defining relations of B_n among sigma[1..n-1], with
    mul the matrix product and == the equality of its results (exact for
    ring matrices, mod r for specialised ones)."""
    for i in range(1, n - 1):
        a, b = sigma[i], sigma[i + 1]
        ab = mul(a, b)
        if not mul(ab, a) == mul(b, ab):
            return False
    for i in range(1, n):
        for j in range(i + 2, n):
            if not mul(sigma[i], sigma[j]) == mul(sigma[j], sigma[i]):
                return False
    return True


def _free_columns(basis):
    """The free column of each vector of a highest_weight_basis: its last
    nonzero coordinate.  Vectors with distinct last nonzero coordinates
    are in echelon form; InvariantError if two vectors share one."""
    free = [max(r for r, e in enumerate(vec) if e.terms) for vec in basis]
    if len(set(free)) != len(free):
        raise InvariantError("highest-weight basis: two vectors end at the "
                             "same coordinate, not in echelon form")
    return free


def braid_matrices(n: int, ell: int) -> RepMatrices:
    """The braid representation on W_{n, ell}, integral on the basis;
    A sigma_i = S_i A and the braid relations verified exactly before
    returning.

    Basis vector k is the kernel vector of a free column f_k of E, its
    last nonzero coordinate (qlinalg.nullspace; read by _free_columns),
    and is zero at the other free columns; at ell = 0 the basis is the
    identity and f_k = k.
    A[f_k][k] is a unit +-q^a s^b, so the basis is a lattice basis of W
    cap R^D, R = Z[q^+-1, s^+-1]: each such w is sum_k (w[f_k] /
    A[f_k][k]) b_k.  Row k of sigma_i is therefore row f_k of S_i A
    divided by that unit, with no elimination: sigma_i is a ring matrix.
    """
    basis = highest_weight_basis(n, ell)
    A = mat_transpose(basis)  # V-dim x d
    free = _free_columns(basis)
    units = [A[f][k] for k, f in enumerate(free)]
    if not all(len(u.terms) == 1 and abs(*u.terms.values()) == 1 for u in units):
        raise InvariantError(f"highest-weight basis of W_{n},{ell}: "
                             "a free-column entry is not a unit")
    sigma_v = {i: sigma_on_V(n, ell, i) for i in range(1, n)}
    sigma = {}
    for i in range(1, n):
        SA = mat_mul(sigma_v[i], A)
        sigma[i] = [[e.exact_div(u) for e in SA[f]] for f, u in zip(free, units)]
        if mat_mul(A, sigma[i]) != SA:
            raise ArithmeticError(f"sigma_{i} on W_{n},{ell}: A sigma_{i} != S_{i} A")
    if not braid_relations_hold(sigma, n, mat_mul):
        raise ArithmeticError(f"braid relations fail on W_{n},{ell}")
    return RepMatrices(n, ell, len(basis), basis, sigma, sigma_v)


def expected_w2_eigenvalue(ell: int) -> LaurentPoly2:
    """The scalar by which sigma_1 must act on the one-dimensional
    W_{2, ell}: braid_matrices(2, ell).sigma[1][0][0]."""
    return qs_monomial(ell * (ell - 1), -2 * ell, -1 if ell % 2 else 1)


def e_commutes_with_braiding(mats: RepMatrices) -> bool:
    """The two actions commute: E sigma_i = sigma_i E on V_{n, ell}."""
    n, ell = mats.n, mats.ell
    if ell == 0:
        return True
    E = e_matrix(n, ell)
    for i in range(1, n):
        lower = sigma_on_V(n, ell - 1, i)
        if mat_mul(E, mats.sigma_v[i]) != mat_mul(lower, E):
            return False
    return True


def decomposition_check(mats: RepMatrices) -> bool:
    """Dimension bookkeeping of the restriction to the braid subgroup on
    strands 2..n, plus the first-index filtration realizing it.

    sigma_2..sigma_{n-1} act on tensor factors 2..n, so every nonzero
    entry of their matrices on V_{n, ell} must join compositions with
    the same first part; one pass over each matrix checks that.  They
    then keep each V_{<=j} (first tensor index <= j), and since W_{n,
    ell} is invariant (braid_matrices certifies it) they keep G_j = W
    cap V_{<=j}.  dim G_j must be the sum of the top j+1 summand
    dimensions, sum_{t = ell-j}^{ell} binom(n-3+t, t), which stacks up
    to the claimed direct-sum decomposition.

    The basis is the highest_weight_basis that braid_matrices
    certified: its vectors end at distinct free columns f_k
    (_free_columns, which raises otherwise), so they are in echelon
    form.  Compositions are in lex order, so V_{<=j} is a prefix of the
    coordinates, and dim G_j = #{k : comps[f_k][0] <= j}, with no
    elimination.
    """
    n, ell = mats.n, mats.ell
    if n < 3:
        raise ValueError("need n >= 3")
    if hw_dim(n, ell) != sum(comb(n + k - 3, k) for k in range(ell + 1)):
        return False
    comps = compositions(n, ell)
    for i in range(2, n):
        if any(e.terms and comps[r][0] != comps[c][0]
               for r, row in enumerate(mats.sigma_v[i])
               for c, e in enumerate(row)):
            return False
    firsts = [comps[f][0] for f in _free_columns(mats.basis)]
    return all(sum(a <= j for a in firsts)
               == sum(comb(n - 3 + t, t) for t in range(ell - j, ell + 1))
               for j in range(ell + 1))


def qbinom_product_identity(t: int) -> bool:
    """sum_m [t m]_q x^m = prod_{k=0}^{t-1} (x + q^(1-t+2k)), expanded in
    an auxiliary variable, plus the alternating-sum consequence."""
    lhs = [qbinom(t, m) for m in range(t + 1)]
    rhs = [ONE]
    for k in range(t):
        mono = qs_monomial(1 - t + 2 * k, 0)
        new = [rhs[0] * mono]
        for m in range(1, len(rhs)):
            new.append(rhs[m - 1] + rhs[m] * mono)
        new.append(ONE)
        rhs = new
    if len(lhs) != len(rhs) or any(a != b for a, b in zip(lhs, rhs)):
        return False
    if t >= 1:
        acc = ZERO
        for m in range(t + 1):
            term = qbinom(t, m).shift(m * (1 - t), 0)
            acc = acc + (term if m % 2 == 0 else -term)
        if not acc.is_zero():
            return False
    return True


# -- the hermitian form -------------------------------------------------------

def hermitian_form(ell: int):
    """num(H) = den H for the pairing matrix H on V_{4, ell} of the
    reversal-twisted form: <e_I, e_J> is nonzero only for J =
    reverse(I), where it is the product over the parts m of I of
    (v_m, v_m) = (q - q^-1)^m / den_m, den_m = [m]! prod_{k<m} (s q^-k -
    s^-1 q^k).  A part m occurs at most min(4, ell // m) times, so den =
    prod_m den_m^min(4, ell // m) clears every denominator of H and
    num(H) is a ring matrix."""
    comps = compositions(4, ell)
    index = {c: k for k, c in enumerate(comps)}
    dens = {m: qfact(m) * _torus_factor(m, 0) for m in range(1, ell + 1)}
    top = {m: min(4, ell // m) for m in dens}
    # the parts of every composition sum to ell
    lead = (qs_monomial(1, 0) - qs_monomial(-1, 0)) ** ell
    H = [[ZERO] * len(comps) for _ in comps]
    for r, c in enumerate(comps):
        val = lead
        for m, e in top.items():
            val = val * dens[m] ** (e - c.count(m))
        H[r][index[c[::-1]]] = val
    return H


def form_identities(ell: int) -> dict:
    """The three form identities on V_{4, ell}, from one build of
    sigma_1..sigma_3 and their bars, num(H), L = D_4 T_4 (D_4 diagonal
    q^sum a_i(a_i+1), T_4 the reversal) and J_V, under the keys and in
    the order `qrep --verify` reports them:

    starred_identities_v41: sigma_i^T H bar(sigma_(4-i)) = H for every
      i, exactly on num(H): its one scalar denominator cancels;
    reversal_conjugation: L sigma_i^-1 L^-1 = bar(sigma_(4-i)), tested
      in the inverse-free form L = bar(sigma_(4-i)) L sigma_i;
    constructive_intertwiner: J_V sigma_i^T = sigma_i J_V for the
      constructive J_V = H (L^-1)^T, taken as num(H) (T_4 D_4^-1)^T.

    The first two hold at ell = 0..3; the third at ell <= 1 only, so the
    construction is not a general intertwiner (intertwiner_J solves for
    one at any ell).  `qrep --verify` runs this at ell = 1 whatever ell
    is asked."""
    comps = compositions(4, ell)
    index = {c: k for k, c in enumerate(comps)}
    S = {i: sigma_on_V(4, ell, i) for i in (1, 2, 3)}
    bar = {i: [[e.bar() for e in row] for row in S[4 - i]] for i in S}  # bar(sigma_(4-i))
    H = hermitian_form(ell)
    L = [[ZERO] * len(comps) for _ in comps]
    L_inv_t = [[ZERO] * len(comps) for _ in comps]  # (L^-1)^T = (T_4 D_4^-1)^T
    for k, c in enumerate(comps):
        e = sum(a * (a + 1) for a in c)
        L[index[c[::-1]]][k] = qs_monomial(e, 0)
        L_inv_t[k][index[c[::-1]]] = qs_monomial(-e, 0)
    J = mat_mul(H, L_inv_t)
    return {
        "starred_identities_v41": all(
            mat_mul(mat_mul(mat_transpose(S[i]), H), bar[i]) == H for i in S),
        "reversal_conjugation": all(
            mat_mul(mat_mul(bar[i], L), S[i]) == L for i in S),
        "constructive_intertwiner": all(
            mat_mul(J, mat_transpose(S[i])) == mat_mul(S[i], J) for i in S),
    }


# The largest W dimension whose intertwiner is solved.  On a 2-core
# x86 host d = 6 at (4, 2) takes about 0.14 s, while d = 10 at (4, 3), a
# 300 x 100 ring system, takes about 95 s.
MAX_INTERTWINER_DIM = 6


def check_intertwiner_size(n: int, ell: int):
    """Raise BudgetError if the intertwiner of W_{n, ell} is too large."""
    d = hw_dim(n, ell)
    if d > MAX_INTERTWINER_DIM:
        raise BudgetError(f"refusing the intertwiner of W_{n},{ell}: "
                          f"dimension {d} exceeds {MAX_INTERTWINER_DIM}")


def commutation_system(mats: RepMatrices):
    """Rows of J sigma_i^T - sigma_i J = 0 in the d^2 entries of J
    (row-major): d^2 equations per generator."""
    d = mats.dim
    rows = []
    for N in mats.sigma.values():
        for r in range(d):
            for c in range(d):
                row = [ZERO] * (d * d)
                for j in range(d):
                    row[r * d + j] = row[r * d + j] + N[c][j]   # J[r][j] N^T[j][c]
                for k in range(d):
                    row[k * d + c] = row[k * d + c] - N[r][k]   # N[r][k] J[k][c]
                rows.append(row)
    return rows


def intertwiner_J(mats: RepMatrices):
    """J with J sigma_i^T J^-1 = sigma_i on the W basis, from the
    nullspace of the commutation system; unique up to scalar by
    irreducibility (solution space of dimension != 1 is an error).
    J is certified invertible by one nonsingular specialisation: its
    determinant is then a nonzero element of the ring.

    Returns (J, info) with J over the ring, content-stripped.  The
    inverse-transpose automorphism A -> J (A^T)^-1 J^-1 then sends each
    sigma_i to sigma_i^-1 (same relation, inverted), and it squares to
    a scalar iff J is proportional to its own transpose, which is
    checked exactly.  Raises BudgetError above MAX_INTERTWINER_DIM.
    """
    check_intertwiner_size(mats.n, mats.ell)
    d = mats.dim
    kern = nullspace(commutation_system(mats))
    if len(kern) != 1:
        raise ArithmeticError(
            f"intertwiner space has dimension {len(kern)}, not 1 "
            "(falsifies irreducibility)")
    vec = kern[0]
    J = [[vec[r * d + c] for c in range(d)] for r in range(d)]
    q0, s0, r = 2, 3, 2**61 - 1  # r prime
    try:
        _mat_inv_mod([[e.eval_mod(q0, s0, r) for e in row] for row in J], r)
    except ZeroDivisionError:
        raise InvariantError(f"intertwiner is singular at (q, s) = ({q0}, {s0}) "
                             f"mod {r}: invertibility not certified") from None
    for N in mats.sigma.values():
        if mat_mul(J, mat_transpose(N)) != mat_mul(N, J):
            raise ArithmeticError("intertwiner verification failed")
    # phi^2 scalar <=> J proportional to J^T
    ab = next((r, c) for r in range(d) for c in range(d) if J[r][c].terms)
    sym = all(J[r][c] * J[ab[1]][ab[0]] == J[c][r] * J[ab[0]][ab[1]]
              for r in range(d) for c in range(d))
    return J, {"unique_up_to_scalar": True, "invertible": True,
               "conjugates_transpose": True, "phi_squared_scalar": sym}


# -- specialization -----------------------------------------------------------

def _mat_inv_mod(M, r):
    n = len(M)
    aug = [[M[i][j] % r for j in range(n)] + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] % r), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible mod r")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], r - 2, r)
        aug[c] = [v * inv % r for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(vi - f * vc) % r for vi, vc in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _is_scalar_mod(M, r):
    n = len(M)
    d = M[0][0] % r
    return all(M[i][j] % r == (d if i == j else 0) for i in range(n) for j in range(n))


def check_point(r: int, q0: int, s0: int):
    """Raise ValueError unless (q0, s0) is a point over F_r at which the
    ring can be evaluated: r prime, q0 and s0 units mod r."""
    if not is_prime(r):
        raise ValueError(f"modulus {r} is not prime")
    if q0 % r == 0 or s0 % r == 0:
        raise ValueError(f"q0 = {q0} and s0 = {s0} must be units mod {r}")


def specialize(mats: RepMatrices, r: int, q0: int, s0: int, J=None) -> dict:
    """Evaluate the representation at (q0, s0) over F_r, entry by entry:
    the matrices are integral, so no denominator can vanish.

    Re-verifies the braid relations over F_r and reports whether
    x = sigma_1 sigma_3^-1 is scalar, that is whether sigma_1 and
    sigma_3 agree projectively (they must not).  Raises ValueError at
    a point check_point refuses.
    """
    check_point(r, q0, s0)
    spec = {i: [[e.eval_mod(q0, s0, r) for e in row] for row in S]
            for i, S in mats.sigma.items()}

    def mult(A, B):
        cols = list(zip(*B))
        return [[sum(map(mul, row, col)) % r for col in cols] for row in A]

    relations = braid_relations_hold(spec, mats.n, mult)
    out = {"r": r, "q0": q0 % r, "s0": s0 % r, "n": mats.n, "ell": mats.ell,
           "dim": mats.dim, "sigma": {i: spec[i] for i in spec},
           "relations_hold": relations}
    if mats.n >= 4:
        x = mult(spec[1], _mat_inv_mod(spec[3], r))
        scalar = _is_scalar_mod(x, r)
        out["sigma1_eq_sigma3_projectively"] = scalar
        out["x_matrix"] = x
        out["x_nonscalar"] = not scalar
    if J is not None:
        out["J"] = [[e.eval_mod(q0, s0, r) for e in row] for row in J]
    return out


# -- export -------------------------------------------------------------------

def poly_json(p: LaurentPoly2):
    return [[c, *unpack(k)] for k, c in sorted(p.terms.items())]


def export_rep(mats: RepMatrices) -> dict:
    """The basis and the braid matrices as lists of terms, each integral
    sigma_i written as {"num": sigma_i, "den": 1}."""
    return {
        "n": mats.n, "ell": mats.ell, "dim": mats.dim,
        "basis": [[poly_json(e) for e in vec] for vec in mats.basis],
        "sigma": {str(i): {"num": [[poly_json(e) for e in row] for row in S],
                           "den": poly_json(ONE)}
                  for i, S in mats.sigma.items()},
    }


# -- single-module operator identities ---------------------------------------

def operator_relations_check(jmax: int = 6, nmax: int = 3) -> bool:
    """Defining relations as operator identities on v_0..v_jmax:
    K E K^-1 = q^2 E, K F^(n) K^-1 = q^(-2n) F^(n),
    F^(n) F^(m) = [n+m choose n]_q F^(n+m),
    [E, F^(n+1)] = F^(n) (q^-n K - q^n K^-1).

    K, K^-1, E and F^(n) each send v_j to a ring multiple of one basis
    vector (K^-1 v_j = s^-1 q^2j v_j, E v_j = v_{j-1} or 0), so each
    relation on v_j is one identity of ring coefficients."""
    def k(j):  # K v_j = k(j) v_j
        return qs_monomial(-2 * j, 1)

    @cache
    def f(n, j):  # F^(n) v_j = f(n, j) v_{j+n}, memoised for this call
        return qbinom(n + j, j) * _torus_factor(n, j)

    for j in range(jmax + 1):
        if j >= 1 and k(j - 1) != k(j).shift(2, 0):
            return False
        for nn in range(1, nmax + 1):
            if k(j + nn) != k(j).shift(-2 * nn, 0):
                return False
        for nn in range(nmax + 1):
            for mm in range(nmax + 1):
                if f(mm, j) * f(nn, j + mm) != qbinom(nn + mm, nn) * f(nn + mm, j):
                    return False
        for nn in range(nmax + 1):
            lhs = f(nn + 1, j) - (f(nn + 1, j - 1) if j >= 1 else ZERO)
            if lhs != f(nn, j) * (k(j).shift(-nn, 0) - qs_monomial(2 * j + nn, -1)):
                return False
    return True
