from dataclasses import replace
from math import comb

import pytest

from charquo import qrep as qr
from charquo.laurent import ONE, ZERO, qbinom, qnum, qs_monomial
from charquo.numutil import BudgetError, InvariantError
from charquo.qlinalg import ff_jordan, mat_mul, mat_transpose


def test_compositions():
    cs = qr.compositions(3, 2)
    assert cs == sorted(cs)
    assert len(cs) == comb(4, 2)
    assert qr.compositions(2, 0) == [(0, 0)]


def test_r_matrix_examples():
    assert qr.r_matrix(0, 0) == [((0, 0), ONE)]
    r = dict(qr.r_matrix(0, 5))
    assert r == {(5, 0): qs_monomial(0, -5)}
    r10 = dict(qr.r_matrix(1, 0))
    assert r10[(0, 1)] == qs_monomial(0, -1)
    assert r10[(1, 0)] == qs_monomial(0, -1) * (qs_monomial(0, 1) - qs_monomial(0, -1))


def test_yang_baxter():
    for ell in range(5):
        assert qr.braid_relations_hold(qr.braid_matrices(3, ell).sigma_v, 3, mat_mul)


def test_sigma_commutes_on_disjoint_factors():
    for ell in range(3):
        s1 = qr.sigma_on_V(4, ell, 1)
        s3 = qr.sigma_on_V(4, ell, 3)
        assert mat_mul(s1, s3) == mat_mul(s3, s1)


def test_operator_relations():
    assert qr.operator_relations_check()


@pytest.mark.parametrize("name, at", [("_torus_factor", (2, 1)), ("qbinom", (3, 1))])
def test_operator_relations_rejects_a_perturbed_coefficient(monkeypatch, name, at):
    # one F^(n) coefficient, or one q-binomial, off by a factor q
    real = getattr(qr, name)
    monkeypatch.setattr(qr, name, lambda *a: real(*a).shift(1, 0) if a == at else real(*a))
    assert not qr.operator_relations_check()


def test_hw_dims_and_kernel():
    for n in range(2, 6):
        for ell in range(4):
            basis = qr.highest_weight_basis(n, ell)
            assert len(basis) == comb(n + ell - 2, ell)
    with pytest.raises(ValueError):
        qr.highest_weight_basis(1, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_basis_check_rejects_a_vector_outside_ker_E(monkeypatch, k):
    # one basis vector moved off ker(E) by e_0, which E does not kill
    real = qr.nullspace

    def moved(A, ncols=None):
        basis = real(A, ncols)
        basis[k] = [basis[k][0] + ONE] + basis[k][1:]
        return basis

    monkeypatch.setattr(qr, "nullspace", moved)
    with pytest.raises(InvariantError, match="W_4,2: a basis vector is not killed by E"):
        qr.highest_weight_basis(4, 2)


def test_w2_kernel_vector_formula():
    for ell in range(1, 5):
        basis = qr.highest_weight_basis(2, ell)
        comps = qr.compositions(2, ell)
        vec = basis[0]
        exp = {comps.index((ell - i, i)):
               qs_monomial(-i * (i - 1), i, -1 if i % 2 else 1)
               for i in range(ell + 1)}
        k0 = next(k for k in range(len(vec)) if vec[k].terms)
        for k in range(len(vec)):
            assert vec[k] * exp[k0] == exp.get(k, ZERO) * vec[k0]


def test_braid_matrices_and_eigenvalues():
    for ell in range(5):
        assert qr.braid_matrices(2, ell).sigma[1][0][0] == qr.expected_w2_eigenvalue(ell)
    mats = qr.braid_matrices(4, 2)
    assert mats.dim == 6
    assert qr.braid_relations_hold(mats.sigma, 4, mat_mul)


def test_braid_matrices_certifies_each_generator(monkeypatch):
    # sigma_2 with one extra diagonal entry leaves W_4,2, so no matrix
    # read off S_2 A satisfies A sigma_2 = S_2 A
    real = qr.sigma_on_V

    def patched(n, ell, i):
        M = real(n, ell, i)
        if i == 2:
            M[0][0] = M[0][0] + ONE
        return M

    monkeypatch.setattr(qr, "sigma_on_V", patched)
    with pytest.raises(ArithmeticError, match="sigma_2 on W_4,2"):
        qr.braid_matrices(4, 2)


def _is_scalar(M):
    return all(len(row) == len(M) for row in M) and all(
        e == (M[0][0] if r == c else ZERO)
        for r, row in enumerate(M) for c, e in enumerate(row))


def test_central_element_scalar():
    # (s1 s2 s3)^4 is central in B_4, so it acts as a scalar on the
    # irreducible W_{4, ell}
    for ell in (1, 2):
        mats = qr.braid_matrices(4, ell)
        c = mat_mul(mat_mul(mats.sigma[1], mats.sigma[2]), mats.sigma[3])
        c2 = mat_mul(c, c)
        assert _is_scalar(mat_mul(c2, c2))


def test_decomposition_check():
    for n, ell in ((4, 2), (3, 2), (5, 3)):
        assert qr.decomposition_check(qr.braid_matrices(n, ell))
    assert comb(4, 2) == 1 + 2 + 3
    assert comb(3, 2) == 1 + 1 + 1
    assert comb(6, 3) == 1 + 3 + 6 + 10


def _moved_sigma_v(mats, i, r, c, entry):
    """mats with entry added at (r, c) of sigma_i on V."""
    M = [list(row) for row in mats.sigma_v[i]]
    M[r][c] = M[r][c] + entry
    return replace(mats, sigma_v={**mats.sigma_v, i: M})


def test_decomposition_check_rejects_first_index_moves():
    comps = qr.compositions(4, 2)
    r, c = comps.index((1, 1, 0, 0)), comps.index((0, 2, 0, 0))
    # sends first part 0 to first part 1
    mats = _moved_sigma_v(qr.braid_matrices(4, 2), 3, r, c, ONE)
    assert not qr.decomposition_check(mats)


def test_decomposition_check_rejects_a_dropped_vector():
    for n, ell in ((3, 2), (4, 2), (5, 3)):
        mats = qr.braid_matrices(n, ell)
        for k in (0, mats.dim - 1):
            basis = mats.basis[:k] + mats.basis[k + 1:]
            assert not qr.decomposition_check(replace(mats, basis=basis))


def test_decomposition_check_rejects_a_non_echelon_basis():
    # b_0 + b_last spans the same W but ends where b_last does
    mats = qr.braid_matrices(4, 2)
    b0 = [a + b for a, b in zip(mats.basis[0], mats.basis[-1])]
    with pytest.raises(InvariantError, match="not in echelon form"):
        qr.decomposition_check(replace(mats, basis=[b0] + mats.basis[1:]))


def _is_unit(u):
    return len(u.terms) == 1 and abs(*u.terms.values()) == 1


def test_basis_is_unit_diagonal_on_free_columns():
    # the free columns of E, from its own elimination: basis vector k is
    # a unit at the k-th of them, zero at the others, and that column is
    # its last nonzero coordinate
    for n in range(2, 7):
        for ell in range(5):
            basis = qr.highest_weight_basis(n, ell)
            E = qr.e_matrix(n, ell)
            D = qr.weight_dim(n, ell)
            pivots = ff_jordan(E)[1] if E else []
            free = [c for c in range(D) if c not in pivots]
            assert len(free) == len(basis)
            for k, vec in enumerate(basis):
                assert all(_is_unit(vec[f]) if j == k else not vec[f].terms
                           for j, f in enumerate(free))
                assert not any(e.terms for e in vec[free[k] + 1:])


def test_qbinom_product_identity():
    for t in range(7):
        assert qr.qbinom_product_identity(t)
    # hand expansion at t = 2
    x2 = [ONE * 1, qnum(2), ONE]
    assert [qbinom(2, m) for m in range(3)] == x2


# pointwise references for the form checks: matrices evaluated at a
# few (q0, s0) over F_R, where no denominator of H vanishes
R = 1_000_003
POINTS = ((3, 5), (7, 11), (123, 457))


def _mm(A, B):
    return [[sum(a * b for a, b in zip(row, col)) % R for col in zip(*B)]
            for row in A]


def _tr(A):
    return [list(col) for col in zip(*A)]


def _at(M, q0, s0):
    return [[e.eval_mod(q0, s0, R) for e in row] for row in M]


def _den(m, q0, s0):
    """den_m = [m]! prod_{k<m} (s q^-k - s^-1 q^k)."""
    den = 1
    for k in range(1, m + 1):
        den *= sum(pow(q0, k - 1 - 2 * j, R) for j in range(k))  # [k]_q
    for k in range(m):
        den *= s0 * pow(q0, -k, R) - pow(s0, -1, R) * pow(q0, k, R)
    return den % R


def _vv(m, q0, s0):
    """(v_m, v_m) = (q - q^-1)^m / den_m."""
    return pow(q0 - pow(q0, -1, R), m, R) * pow(_den(m, q0, s0), -1, R) % R


def test_hermitian_values():
    assert qr.hermitian_form(0) == [[ONE]]
    h = qs_monomial(1, 0) - qs_monomial(-1, 0)
    anti = [[h if r + c == 3 else ZERO for c in range(4)] for r in range(4)]
    assert qr.hermitian_form(1) == anti
    # every entry of num(H) against the product of the (v_m, v_m) times
    # the common denominator prod_m den_m^min(4, ell // m), pointwise
    for ell in range(4):
        comps = qr.compositions(4, ell)
        for q0, s0 in POINTS:
            H = _at(qr.hermitian_form(ell), q0, s0)
            den = 1
            for m in range(1, ell + 1):
                den = den * pow(_den(m, q0, s0), min(4, ell // m), R) % R
            for r, c in enumerate(comps):
                want = den
                for m in c:
                    want = want * _vv(m, q0, s0) % R
                assert H[r] == [want if comps[k] == c[::-1] else 0
                                for k in range(len(comps))]


def _starred_pointwise(ell):
    S = {i: qr.sigma_on_V(4, ell, i) for i in (1, 2, 3)}
    for q0, s0 in POINTS:
        H = _at(qr.hermitian_form(ell), q0, s0)
        qi, si = pow(q0, -1, R), pow(s0, -1, R)
        for i in (1, 2, 3):
            # bar(sigma) at (q0, s0) is sigma at (q0^-1, s0^-1)
            if _mm(_mm(_tr(_at(S[i], q0, s0)), H), _at(S[4 - i], qi, si)) != H:
                return False
    return True


def test_starred_identities():
    for ell in range(4):
        assert qr.form_identities(ell)["starred_identities_v41"] == _starred_pointwise(ell)
    assert qr.form_identities(1)["starred_identities_v41"]


def _l_matrix(ell):
    """L = D_4 T_4 on V_{4, ell}: e_c -> q^(sum a_i(a_i+1)) e_reverse(c)."""
    comps = qr.compositions(4, ell)
    return [[qs_monomial(sum(a * (a + 1) for a in c), 0) if r == c[::-1] else ZERO
             for c in comps] for r in comps]


def test_reversal_conjugation():
    for ell in range(4):
        assert qr.form_identities(ell)["reversal_conjugation"]


def test_hl_intertwines_transpose():
    # sigma_i^T (H L) = (H L) sigma_i follows from the starred and the
    # reversal identities, at every ell
    for ell in range(4):
        HL = mat_mul(qr.hermitian_form(ell), _l_matrix(ell))
        for i in (1, 2, 3):
            S = qr.sigma_on_V(4, ell, i)
            assert mat_mul(mat_transpose(S), HL) == mat_mul(HL, S)


def _constructive_pointwise(ell):
    for q0, s0 in POINTS:
        H = _at(qr.hermitian_form(ell), q0, s0)
        # L is monomial in q alone, so L^-1 is L at q^-1
        J = _mm(H, _tr(_at(_l_matrix(ell), pow(q0, -1, R), s0)))
        for i in (1, 2, 3):
            S = _at(qr.sigma_on_V(4, ell, i), q0, s0)
            if _mm(J, _tr(S)) != _mm(S, J):
                return False
    return True


def test_constructive_intertwiner():
    for ell in range(4):
        assert (qr.form_identities(ell)["constructive_intertwiner"]
                == _constructive_pointwise(ell))
    assert qr.form_identities(1)["constructive_intertwiner"]


def test_form_identities_reject_a_perturbed_sigma(monkeypatch):
    real = qr.sigma_on_V

    def perturbed(n, ell, i):
        M = real(n, ell, i)
        if (n, ell, i) == (4, 1, 2):
            M[0][1] = M[0][1] + ONE
        return M

    monkeypatch.setattr(qr, "sigma_on_V", perturbed)
    assert list(qr.form_identities(1).values()) == [False, False, False]


def test_intertwiner_J():
    for (n, ell) in ((4, 1), (4, 2)):
        mats = qr.braid_matrices(n, ell)
        J, info = qr.intertwiner_J(mats)
        assert info["unique_up_to_scalar"]
        assert info["invertible"]
        assert info["phi_squared_scalar"]


def test_intertwiner_J_refused_above_bound():
    assert comb(4, 2) == qr.MAX_INTERTWINER_DIM
    mats = qr.braid_matrices(4, 3)
    with pytest.raises(BudgetError, match="dimension 10 exceeds 6"):
        qr.intertwiner_J(mats)


def test_intertwiner_J_singular_refused(monkeypatch):
    # a one-entry kernel vector makes J singular at every point
    mats = qr.braid_matrices(4, 1)
    d = mats.dim
    monkeypatch.setattr(qr, "nullspace",
                        lambda rows: [[ONE] + [ZERO] * (d * d - 1)])
    with pytest.raises(InvariantError, match="singular"):
        qr.intertwiner_J(mats)


def test_specialize_good_point():
    mats = qr.braid_matrices(4, 1)
    rep = qr.specialize(mats, 1009, 3, 5)
    assert rep["relations_hold"]
    assert not rep["sigma1_eq_sigma3_projectively"]
    assert rep["x_nonscalar"]


def test_specialize_sigma1_proportional_to_sigma3():
    # on the one-dimensional W_4,0 every sigma_i is the same scalar
    rep = qr.specialize(qr.braid_matrices(4, 0), 7, 3, 5)
    assert rep["relations_hold"]
    assert rep["sigma1_eq_sigma3_projectively"]
    assert not rep["x_nonscalar"]


def test_specialize_flip_at_unit_point():
    M = [[e.eval_mod(1, 1, 97) for e in row] for row in qr.sigma_on_V(3, 2, 1)]
    comps = qr.compositions(3, 2)
    idx = {c: k for k, c in enumerate(comps)}
    for k, c in enumerate(comps):
        for r in range(len(comps)):
            want = 1 if r == idx[(c[1], c[0]) + c[2:]] else 0
            assert M[r][k] == want


def test_specialize_bad_points():
    mats = qr.braid_matrices(2, 1)
    with pytest.raises(ValueError):
        qr.specialize(mats, 1000, 3, 5)  # composite modulus
    with pytest.raises(ValueError):
        qr.specialize(mats, 1009, 0, 5)


def test_export_json_shape():
    mats = qr.braid_matrices(3, 1)
    out = qr.export_rep(mats)
    assert out["n"] == 3 and out["dim"] == 2
    assert set(out["sigma"]) == {"1", "2"}
    import json
    json.dumps(out)  # JSON-serializable


def test_e_commutes():
    for (n, ell) in ((3, 2), (4, 2), (5, 2)):
        assert qr.e_commutes_with_braiding(qr.braid_matrices(n, ell))


def test_e_commutes_rejects_a_perturbed_sigma():
    mats = qr.braid_matrices(4, 2)
    for i in (1, 3):
        assert not qr.e_commutes_with_braiding(_moved_sigma_v(mats, i, 0, 0, ONE))
