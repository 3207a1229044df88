import dataclasses
from itertools import product

import pytest

from nilwitness import (
    Q,
    DivisionByZero,
    ExtensionBasis,
    InvalidParams,
    Matrix,
    NonSingular,
    NotRowEquivalent,
    NotSquare,
    VerificationError,
    build_shift_nilpotent,
    catalog_3x3,
    extend_to_basis,
    is_rref,
    nilpotent_index,
    null_space_basis,
    rank2_nilpotent,
    rank2_nilpotent_a0,
    rank2_nilpotent_a0_candidates,
    rank2_nilpotent_script,
    rank2_nilpotent_script_candidates,
    row_equivalent,
    same_null_space,
    witness,
    witness_script,
)

from helpers import (
    GF2,
    GF5,
    column,
    qmat,
    random_invertible,
    random_matrix,
    random_singular,
    random_strictly_triangular,
)

T23 = qmat([[1, 0, 2], [0, 1, 3], [0, 0, 0]])
WITNESS23 = qmat([[0, -2, -6], [1, -3, -7], [0, 1, 3]])


def e(i, n=3, field=Q):
    return Matrix.column(field, [field.one() if k == i - 1 else field.zero() for k in range(n)])


class TestBuildShiftNilpotent:
    def test_generic_rank2_form(self):
        n = build_shift_nilpotent(extend_to_basis(null_space_basis(T23)))
        assert n == WITNESS23
        assert (n ** 3).is_zero()
        assert not (n ** 2).is_zero()
        assert n.rref().rref == T23

    def test_two_by_two(self):
        m = qmat([[1, 1], [0, 0]])
        n = build_shift_nilpotent(extend_to_basis(null_space_basis(m)))
        assert n == qmat([[-1, -1], [1, 1]])
        assert (n @ n).is_zero()

    def test_prescribed_image_chain(self):
        # follow the basis around: z1 -> z2 -> k1 -> 0
        basis = extend_to_basis(null_space_basis(T23))
        n = build_shift_nilpotent(basis)
        z1, z2 = basis.z_vectors
        k1 = basis.kernel.vectors[0]
        assert n @ z1 == z2
        assert n @ z2 == k1
        assert (n @ k1).is_zero()

    def test_hand_picked_basis_reproduces_classical_mate(self):
        # overriding the extension with {e2, e3} (valid when a != 0)
        # lands exactly on the classical rank-2 mate at (a,b) = (1,1)
        t11 = catalog_3x3(2, 1, a=1, b=1)
        kern = null_space_basis(t11)
        n = build_shift_nilpotent(ExtensionBasis((e(2), e(3)), kern))
        assert n == rank2_nilpotent(1, 1)
        assert [n.entry(i, 1) for i in (1, 2, 3)] == [Q.scalar(-1), Q.scalar(-1), Q.scalar(0)]

    def test_rejects_empty_kernel(self):
        full_rank = null_space_basis(Matrix.identity(Q, 3))
        with pytest.raises(InvalidParams):
            build_shift_nilpotent(ExtensionBasis((e(1), e(2), e(3)), full_rank))


class TestNilpotentIndex:
    def test_shift_form(self):
        assert nilpotent_index(catalog_3x3(2, 3)) == 3

    def test_zero_and_identity(self):
        assert nilpotent_index(Matrix.zeros(Q, 3, 3)) == 1
        assert nilpotent_index(Matrix.identity(Q, 3)) is None

    def test_rank1_reduction(self):
        g = qmat([[1, 1, 2], [0, 0, 0], ["-1/2", "-1/2", -1]])
        assert nilpotent_index(g) == 2

    def test_not_nilpotent_random(self, rng):
        for _ in range(20):
            m = random_invertible(rng, Q, rng.randint(1, 4))
            assert nilpotent_index(m) is None

    def test_strictly_triangular_bounded_by_n(self, rng):
        for field in (Q, GF5):
            for _ in range(30):
                n = rng.randint(1, 6)
                m = random_strictly_triangular(rng, field, n, upper=rng.random() < 0.5)
                k = nilpotent_index(m)
                assert k is not None and k <= n

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            nilpotent_index(Matrix.zeros(Q, 2, 3))


class TestWitness:
    def test_zero_matrix(self):
        cert = witness(Matrix.zeros(Q, 3, 3))
        assert cert.nilpotent == Matrix.zeros(Q, 3, 3)
        assert cert.index == 1
        assert cert.nullity == 3
        assert len(cert.script_m_to_n) == 0

    def test_one_by_one(self):
        cert = witness(Matrix.zeros(Q, 1, 1))
        assert cert.index == 1 and cert.nullity == 1
        with pytest.raises(NonSingular):
            witness(Matrix(Q, [[5]]))

    def test_generic_rank2_form(self):
        cert = witness(T23)
        assert cert.nilpotent == WITNESS23
        assert cert.index == 3 == T23.nrows - cert.nullity + 1
        assert cert.rref_common == T23
        assert T23.apply(cert.script_m_to_n) == WITNESS23

    def test_rejects_nonsingular(self):
        with pytest.raises(NonSingular) as exc_info:
            witness(Matrix.identity(Q, 3))
        assert "singular" in str(exc_info.value)

    def test_rejects_rectangular(self):
        with pytest.raises(NotSquare):
            witness(Matrix.zeros(Q, 2, 3))

    def test_random_certificates_hold(self, rng):
        for field in (Q, GF5):
            for _ in range(40):
                m = random_singular(rng, field, rng.randint(2, 5))
                cert = witness(m)
                cert.verify()
                n_dim = m.nrows
                assert cert.index == n_dim - cert.nullity + 1
                assert (cert.nilpotent ** cert.index).is_zero()
                if cert.index > 1:
                    assert not (cert.nilpotent ** (cert.index - 1)).is_zero()
                assert cert.nilpotent.trace().is_zero()
                assert same_null_space(m, cert.nilpotent)
                assert row_equivalent(m, cert.nilpotent)
                if cert.nullity < n_dim:
                    # the general inverse-based build is the reference for N = C @ R
                    assert cert.nilpotent == build_shift_nilpotent(extend_to_basis(cert.kernel))

    def test_never_inverts(self, rng, monkeypatch):
        inputs = [Matrix.zeros(field, 3, 3) for field in (Q, GF2, GF5)] + [
            random_singular(rng, field, rng.randint(1, 5))
            for field in (Q, GF2, GF5)
            for _ in range(20)
        ]
        calls = []
        plain = Matrix.inverse

        def counting_inverse(self):
            calls.append(self)
            return plain(self)

        monkeypatch.setattr(Matrix, "inverse", counting_inverse)
        for m in inputs:
            witness(m)
        assert calls == []

    def test_exhaustive_gf2_2x2(self):
        singular = 0
        for bits in product(range(2), repeat=4):
            m = Matrix(GF2, [bits[:2], bits[2:]])
            if m.rref().rank == 2:
                continue
            singular += 1
            cert = witness(m)
            assert (cert.nilpotent ** cert.index).is_zero()
            assert cert.nilpotent.rref().rref == m.rref().rref
        assert singular == 16 - 6  # |GL(2,2)| = 6

    def test_tampered_certificate_detected(self):
        cert = witness(T23)
        tampered = dataclasses.replace(cert, index=2)
        with pytest.raises(VerificationError):
            tampered.verify()
        wrong_matrix = dataclasses.replace(cert, nilpotent=Matrix.zeros(Q, 3, 3))
        with pytest.raises(VerificationError):
            wrong_matrix.verify()
        # consistent with n - nullity + 1, but outside 1..n
        out_of_range = dataclasses.replace(cert, nullity=T23.nrows + 2, index=-1)
        with pytest.raises(VerificationError):
            out_of_range.verify()
        vectors = cert.kernel.vectors
        for broken in ((), vectors + vectors, (column(Q, [0, 0, 0]),)):
            bad_kernel = dataclasses.replace(cert.kernel, vectors=broken)
            with pytest.raises(VerificationError):
                dataclasses.replace(cert, kernel=bad_kernel).verify()

    def test_report_sections_in_order(self):
        report = witness(T23).to_report()
        labels = [line for line in report.splitlines() if line.startswith("[")]
        assert labels == ["[input]", "[nilpotent]", "[index]", "[nullity]", "[rref]", "[script]"]
        assert "Q\n3 3\n1 0 2\n0 1 3\n0 0 0" in report


class TestWitnessScript:
    def test_self_round_trip(self, rng):
        m = random_matrix(rng, Q, 3, 3)
        script = witness_script(m, m)
        assert m.apply(script) == m

    def test_form_to_witness(self):
        script = witness_script(T23, WITNESS23)
        assert T23.apply(script) == WITNESS23

    def test_rejects_inequivalent(self):
        with pytest.raises(NotRowEquivalent):
            witness_script(Matrix.identity(Q, 3), Matrix.zeros(Q, 3, 3))


class TestRowEquivalent:
    def test_form_and_classical_mate(self):
        assert row_equivalent(T23, rank2_nilpotent(2, 3))

    def test_reflexive(self, rng):
        m = random_matrix(rng, Q, 3, 4)
        assert row_equivalent(m, m)

    def test_invertible_factor(self, rng):
        for _ in range(100):
            m = random_matrix(rng, Q, rng.randint(1, 4), rng.randint(1, 4))
            assert row_equivalent(random_invertible(rng, Q, m.nrows) @ m, m)

    def test_agrees_with_same_null_space_for_square(self, rng):
        for _ in range(50):
            a = random_matrix(rng, GF5, 3, 3)
            b = random_matrix(rng, GF5, 3, 3)
            assert row_equivalent(a, b) == same_null_space(a, b)


class TestCatalog:
    def test_rank1_form1(self):
        assert catalog_3x3(1, 1, a=1, b=2) == qmat([[1, 1, 2], [0, 0, 0], [0, 0, 0]])

    def test_rank2_form3(self):
        assert catalog_3x3(2, 3) == qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_rank2_form1_zero_params(self):
        assert catalog_3x3(2, 1, a=0, b=0) == qmat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_all_forms_pass_structural_check(self, rng):
        for rank, form, params in (
            (1, 1, dict(a=3, b=-5)),
            (1, 2, dict(c=7)),
            (1, 3, {}),
            (2, 1, dict(a=-2, b=9)),
            (2, 2, dict(a=4)),
            (2, 3, {}),
        ):
            assert is_rref(catalog_3x3(rank, form, **params))

    def test_gf_parameters(self):
        m = catalog_3x3(2, 1, a=GF5.scalar(1), b=GF5.scalar(7))
        assert m.field == GF5
        assert m.entry(2, 3) == GF5.scalar(2)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            catalog_3x3(3, 1)
        with pytest.raises(InvalidParams):
            catalog_3x3(1, 4)
        with pytest.raises(InvalidParams):
            catalog_3x3(1, 1, a=1)  # b missing
        with pytest.raises(InvalidParams):
            catalog_3x3(2, 3, a=1)  # parameter-free form
        with pytest.raises(InvalidParams):
            catalog_3x3(1, 2, a=1, c=2)  # a does not apply


class TestRank2Nilpotent:
    def test_frozen_instance(self):
        assert rank2_nilpotent(2, 3) == qmat(
            [["-1", 0, "-2"], ["-3/2", 0, "-3"], ["-1", 1, 1]]
        )

    def test_b_zero_still_nilpotent(self):
        mate = rank2_nilpotent(1, 0)
        assert nilpotent_index(mate) == 3
        assert mate.rref().rref == catalog_3x3(2, 1, a=1, b=0)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (-1, 5), (7, -2)])
    def test_index_three(self, a, b):
        assert nilpotent_index(rank2_nilpotent(a, b)) == 3

    def test_rejects_a_zero(self):
        with pytest.raises(DivisionByZero):
            rank2_nilpotent(0, 5)


class TestRank2NilpotentScript:
    def test_resolved_script_replays(self):
        script = rank2_nilpotent_script(2, 3)
        assert catalog_3x3(2, 1, a=2, b=3).apply(script) == rank2_nilpotent(2, 3)

    def test_exactly_one_variant_wins(self):
        start = catalog_3x3(2, 1, a=2, b=3)
        target = rank2_nilpotent(2, 3)
        minus, plus = rank2_nilpotent_script_candidates(2, 3)
        assert start.apply(plus) == target
        assert start.apply(minus) != target

    def test_degenerate_b_one(self):
        # at b = 1 the final coefficient vanishes and both variants coincide
        minus, plus = rank2_nilpotent_script_candidates(1, 1)
        assert minus == plus
        script = rank2_nilpotent_script(1, 1)
        assert catalog_3x3(2, 1, a=1, b=1).apply(script) == rank2_nilpotent(1, 1)

    def test_rejects_zero_parameters(self):
        with pytest.raises(DivisionByZero):
            rank2_nilpotent_script_candidates(0, 1)
        with pytest.raises(DivisionByZero):
            rank2_nilpotent_script_candidates(1, 0)


class TestRank2NilpotentA0:
    def test_sign_resolved_by_kernel_oracle(self):
        resolved = rank2_nilpotent_a0(2)
        assert resolved == qmat([[0, 0, 0], [1, -2, -4], [0, 1, 2]])
        assert (resolved @ column(Q, [0, -2, 1])).is_zero()
        plus, minus = rank2_nilpotent_a0_candidates(2)
        target = catalog_3x3(2, 1, a=0, b=2)
        assert same_null_space(minus, target)
        assert not same_null_space(plus, target)

    def test_b_zero_is_pure_shift(self):
        shift = rank2_nilpotent_a0(0)
        assert shift == qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert nilpotent_index(shift) == 3

    @pytest.mark.parametrize("b", [1, 2, -3])
    def test_resolved_matrix_properties(self, b):
        resolved = rank2_nilpotent_a0(b)
        assert nilpotent_index(resolved) == 3
        assert resolved.rref().rref == catalog_3x3(2, 1, a=0, b=b)

    def test_gf_parameters(self):
        resolved = rank2_nilpotent_a0(GF5.scalar(2))
        assert resolved.field == GF5
        assert nilpotent_index(resolved) == 3
