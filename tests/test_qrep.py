import pytest

from charquo import qrep as qr
from charquo.laurent import (ONE, ZERO, RationalFn2, qbinom, qnum,
                             qs_monomial, qvar, svar)
from charquo.numutil import InvariantError, binom
from charquo.qlinalg import ScaledMatrix, mat_eq, mat_mul


def test_compositions():
    cs = qr.compositions(3, 2)
    assert cs == sorted(cs)
    assert len(cs) == binom(4, 2)
    assert qr.compositions(2, 0) == [(0, 0)]


def test_r_matrix_examples():
    assert qr.r_matrix(0, 0) == [((0, 0), ONE)]
    r = dict(qr.r_matrix(0, 5))
    assert r == {(5, 0): qs_monomial(0, -5)}
    r10 = dict(qr.r_matrix(1, 0))
    assert r10[(0, 1)] == svar(-1)
    assert r10[(1, 0)] == svar(-1) * (svar(1) - svar(-1))


def test_yang_baxter():
    for ell in range(5):
        assert qr.yang_baxter_on_v(ell)


def test_sigma_commutes_on_disjoint_factors():
    for ell in range(3):
        s1 = qr.sigma_on_V(4, ell, 1)
        s3 = qr.sigma_on_V(4, ell, 3)
        assert mat_eq(mat_mul(s1, s3), mat_mul(s3, s1))


def test_operator_relations():
    assert qr.operator_relations_check()


def test_hw_dims_and_kernel():
    for n in range(2, 6):
        for ell in range(4):
            basis = qr.highest_weight_basis(n, ell)
            assert len(basis) == binom(n + ell - 2, ell)
    with pytest.raises(ValueError):
        qr.highest_weight_basis(1, 2)


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
        assert qr.w2_eigenvalue(ell) == qr.expected_w2_eigenvalue(ell)
    mats = qr.braid_matrices(4, 2)
    assert mats.dim == 6
    assert qr.braid_relations_hold(mats.sigma, 4)


def test_central_element_scalar():
    # (s1 s2 s3)^4 is central in B_4, so it acts as a scalar on the
    # irreducible W_{4, ell}
    for ell in (1, 2):
        mats = qr.braid_matrices(4, ell)
        c = mats.sigma[1] @ mats.sigma[2] @ mats.sigma[3]
        c4 = c @ c @ c @ c
        assert c4.is_scalar()


def test_decomposition_check():
    assert qr.decomposition_check(4, 2)
    assert qr.decomposition_check(3, 2)
    assert qr.decomposition_check(5, 3)
    assert binom(4, 2) == 1 + 2 + 3
    assert binom(3, 2) == 1 + 1 + 1
    assert binom(6, 3) == 1 + 3 + 6 + 10


def test_qbinom_product_identity():
    for t in range(7):
        assert qr.qbinom_product_identity(t)
    # hand expansion at t = 2
    x2 = [ONE * 1, qnum(2), ONE]
    assert [qbinom(2, m) for m in range(3)] == x2


def test_hermitian_values():
    assert qr.h_value(0) == RationalFn2.of(1)
    want = RationalFn2(qvar(1) - qvar(-1), svar(1) - svar(-1))
    assert qr.h_value(1) == want


def test_starred_identities():
    assert qr.starred_identities_check(1)


def test_reversal_conjugation():
    assert qr.reversal_conjugation_check(1)


def test_constructive_intertwiner():
    assert qr.intertwiner_construction_check(1)


def test_intertwiner_J():
    for (n, ell) in ((4, 1), (4, 2)):
        mats = qr.braid_matrices(n, ell)
        J, info = qr.intertwiner_J(mats)
        assert info["unique_up_to_scalar"]
        assert info["invertible"]
        assert info["phi_squared_scalar"]


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


def test_specialize_flip_at_unit_point():
    S = ScaledMatrix(qr.sigma_on_V(3, 2, 1), ONE)
    M = S.eval_mod(1, 1, 97)
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
    with pytest.raises(qr.BadSpecializationError):
        qr.specialize(mats, 1009, 0, 5)
    with pytest.raises(ZeroDivisionError):
        qr.h_value(1).eval_mod(1, 1, 97)


def test_bad_denominator_is_named():
    # W_{2,1}: sigma_1 = -s^-2, denominator s^2: vanishes nowhere, so
    # craft a denominator hit instead via a matrix with den (s - s^-1)
    mats = qr.braid_matrices(2, 1)
    forced = qr.RepMatrices(2, 1, 1, mats.basis, mats.basis_matrix,
                            {1: ScaledMatrix([[ONE]], svar(1) - svar(-1))})
    with pytest.raises(qr.BadSpecializationError) as ei:
        qr.specialize(forced, 97, 2, 1)
    assert ei.value.entry == "sigma_1"


def test_export_json_shape():
    mats = qr.braid_matrices(3, 1)
    out = qr.export_rep(mats)
    assert out["n"] == 3 and out["dim"] == 2
    assert set(out["sigma"]) == {"1", "2"}
    import json
    json.dumps(out)  # JSON-serializable


def test_e_commutes():
    for (n, ell) in ((3, 2), (4, 2), (5, 2)):
        assert qr.e_commutes_with_braiding(n, ell)
