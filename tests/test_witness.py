import dataclasses
from itertools import product

import pytest

from nilwitness import (
    GF,
    Q,
    AddMul,
    DivisionByZero,
    ExtensionBasis,
    InvalidParams,
    LinalgError,
    Matrix,
    NonSingular,
    NotRowEquivalent,
    NotSquare,
    RowScript,
    Swap,
    VerificationError,
    WitnessCertificate,
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
    random_of_rank,
    random_rowop,
    random_scalar,
    random_script,
    random_singular,
    random_strictly_triangular,
    reference_verify,
)

T23 = qmat([[1, 0, 2], [0, 1, 3], [0, 0, 0]])
WITNESS23 = qmat([[0, -2, -6], [1, -3, -7], [0, 1, 3]])
GF101 = GF(101)


def e(i, n=3, field=Q):
    return Matrix.column(field, [field.one() if k == i - 1 else field.zero() for k in range(n)])


def with_entry(matrix, i, j, value):
    """Copy of the matrix with 0-based entry (i, j) replaced."""
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = value
    return Matrix(matrix.field, rows)


def nudged(rng, matrix, i=None, j=None):
    """Copy of the matrix with entry (i, j), random by default, moved by a nonzero amount."""
    i = rng.randrange(matrix.nrows) if i is None else i
    j = rng.randrange(matrix.ncols) if j is None else j
    step = random_scalar(rng, matrix.field, nonzero=True)
    return with_entry(matrix, i, j, matrix.rows[i][j] + step)


def recast(matrix):
    """The same entries over another field: Q goes to GF(1000003), GF(p) to Q."""
    if matrix.field == Q:
        big = GF(1000003)
        rows = [[big.scalar(x.value.numerator, x.value.denominator) for x in row] for row in matrix]
        return Matrix(big, rows)
    return Matrix(Q, [[Q.scalar(x.value) for x in row] for row in matrix])


def certificate_mix(rng):
    """Genuine certificates over Q, GF(2), GF(5), GF(101): n = 1..7, every rank 0..n-1."""
    return [
        witness(random_of_rank(rng, field, n, rank))
        for field in (Q, GF2, GF5, GF101)
        for n in range(1, 8)
        for rank in range(n)
    ]


def single_field_tamper(rng, cert):
    """One field of the certificate changed at random (index and nullity count as a pair)."""
    field, n = cert.source.field, cert.source.nrows
    kinds = ("source", "nilpotent", "index", "nullity", "pair", "kernel", "rref", "script")
    kind = rng.choice(kinds)
    if kind == "source":
        return {"source": rng.choice((nudged(rng, cert.source), recast(cert.source)))}
    if kind == "nilpotent":
        how = rng.choice(("entry", "recast", "truncate"))
        if how == "truncate" and n > 1:
            return {"nilpotent": Matrix(field, [row[:-1] for row in cert.nilpotent])}
        if how == "recast":
            return {"nilpotent": recast(cert.nilpotent)}
        return {"nilpotent": nudged(rng, cert.nilpotent)}
    if kind == "index":
        return {"index": cert.index + rng.choice((-1, 1))}
    if kind == "nullity":
        return {"nullity": cert.nullity + rng.choice((-1, 1))}
    if kind == "pair":
        shift = rng.choice((-1, 1))
        return {"index": cert.index + shift, "nullity": cert.nullity - shift}
    if kind == "kernel":
        vectors = list(cert.kernel.vectors)
        j = rng.randrange(len(vectors))
        how = rng.choice(("entry", "drop", "duplicate", "transpose", "recast"))
        if how == "entry":
            vectors[j] = nudged(rng, vectors[j])
        elif how == "drop":
            del vectors[j]
        elif how == "duplicate":
            vectors.append(vectors[j])
        elif how == "transpose":
            vectors[j] = Matrix(field, [vectors[j].entries])
        else:
            vectors[j] = recast(vectors[j])
        return {"kernel": dataclasses.replace(cert.kernel, vectors=tuple(vectors))}
    if kind == "rref":
        how = rng.choice(("entry", "pivot", "other", "pad", "recast"))
        pivots = cert.kernel.source_rref.pivot_cols
        if how == "pivot" and pivots:
            # a nonzero row's entry in a pivot column: only the RREF shape is off
            i, j = rng.randrange(len(pivots)), rng.choice(pivots) - 1
            return {"rref_common": nudged(rng, cert.rref_common, i, j)}
        if how in ("entry", "pivot"):
            return {"rref_common": nudged(rng, cert.rref_common)}
        if how == "other":
            return {"rref_common": random_of_rank(rng, field, n, rng.randint(0, n)).rref().rref}
        if how == "pad":
            return {"rref_common": Matrix(field, cert.rref_common.rows + ((field.zero(),) * n,))}
        return {"rref_common": recast(cert.rref_common)}
    ops = list(cert.script_m_to_n)
    addmuls = [k for k, op in enumerate(ops) if isinstance(op, AddMul)]
    how = rng.choice(("coefficient", "drop", "append"))
    if how == "coefficient" and addmuls:
        k = rng.choice(addmuls)
        op = ops[k]
        ops[k] = AddMul(op.i, op.c + random_scalar(rng, field, nonzero=True), op.j)
    elif how in ("coefficient", "drop") and ops:
        del ops[rng.randrange(len(ops))]
    else:
        ops.append(random_rowop(rng, field, n))
    return {"script_m_to_n": RowScript(ops)}


def coherent_tamper(rng, cert):
    """Several fields changed together so that the cheap checks still line up."""
    field, n = cert.source.field, cert.source.nrows
    kind = rng.choice(("mate", "off-kernel", "understated", "nonsingular"))
    if kind == "understated":
        # index one too small, nullity one too large, the kernel padded with a repeat
        vectors = cert.kernel.vectors
        return {
            "index": cert.index - 1,
            "nullity": cert.nullity + 1,
            "kernel": dataclasses.replace(cert.kernel, vectors=vectors + vectors[:1]),
        }
    if kind == "mate":
        # a row-equivalent N with a matching script, seldom nilpotent
        extra = random_script(rng, field, n, length=3)
        return {
            "nilpotent": cert.nilpotent.apply(extra),
            "script_m_to_n": cert.script_m_to_n + extra,
        }
    if kind == "off-kernel":
        # N moved on a free column only, replayed from itself: N K != 0
        f = rng.choice(cert.kernel.source_rref.free_cols) - 1
        moved = nudged(rng, cert.nilpotent, j=f)
        return {"source": moved, "nilpotent": moved, "script_m_to_n": RowScript()}
    # the identity with a full-rank "certificate": index n + 1, no kernel
    ident = Matrix.identity(field, n)
    return {
        "source": ident,
        "nilpotent": ident,
        "rref_common": ident,
        "kernel": dataclasses.replace(cert.kernel, vectors=()),
        "index": n + 1,
        "nullity": 0,
        "script_m_to_n": RowScript(),
    }


def raises_verification_error(check, cert):
    try:
        check(cert)
    except VerificationError:
        return True
    return False


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
        # every field of the certificate, one at a time
        (k1,) = vectors
        at_pivot = with_entry(k1, 0, 0, Q.scalar(2))
        script = cert.script_m_to_n
        k = next(k for k, op in enumerate(script) if isinstance(op, AddMul))
        op = script.ops[k]
        bumped = script.ops[:k] + (AddMul(op.i, op.c + 1, op.j),) + script.ops[k + 1 :]
        for changes in (
            {"source": with_entry(T23, 0, 2, Q.scalar(5))},
            {"nilpotent": with_entry(WITNESS23, 2, 2, Q.scalar(4))},
            {"index": 4, "nullity": 0},
            {"index": 2, "nullity": 2},
            {"kernel": dataclasses.replace(cert.kernel, vectors=(at_pivot,))},
            {"rref_common": qmat([[1, 0, 2], [0, 2, 3], [0, 0, 0]])},  # leading 2: not in RREF
            {"rref_common": qmat([[1, 0, 2], [0, 1, 3], [0, 0, 1]])},  # col 3 a non-unit pivot
            {"rref_common": qmat([[1, 0, 2], [0, 0, 0], [0, 0, 0]])},  # valid RREF of rank 1
            {"script_m_to_n": RowScript(bumped)},
            {"script_m_to_n": RowScript(script.ops[1:])},
            {"script_m_to_n": script + RowScript([Swap(1, 4)])},  # no row 4 to replay on
        ):
            with pytest.raises(VerificationError):
                dataclasses.replace(cert, **changes).verify()

    def test_other_nilpotent_mate_rejected(self):
        # row equivalent to T23 and nilpotent of index 3, but not the pivot-shift form
        mate = rank2_nilpotent(2, 3)
        cert = dataclasses.replace(
            witness(T23), nilpotent=mate, script_m_to_n=witness_script(T23, mate)
        )
        reference_verify(cert)  # the reduce-and-power check accepts any mate
        with pytest.raises(VerificationError):
            cert.verify()

    @pytest.mark.parametrize(
        "vector",
        [column(Q, [1, 0]), column(GF5, [-2, -3, 1]), Matrix(Q, [[-2, -3, 1]])],
        ids=["2x1", "gf5-copy", "row"],
    )
    def test_kernel_vector_of_wrong_shape_or_field(self, vector):
        cert = witness(T23)
        bad_kernel = dataclasses.replace(cert.kernel, vectors=(vector,))
        with pytest.raises(VerificationError):
            dataclasses.replace(cert, kernel=bad_kernel).verify()

    @pytest.mark.parametrize("name", ["nilpotent", "rref_common"])
    @pytest.mark.parametrize(
        "reshape",
        [
            lambda m: Matrix(m.field, [row[:2] for row in m.rows]),
            lambda m: Matrix(m.field, m.rows[:2]),
            recast,
        ],
        ids=["3x2", "2x3", "gf-copy"],
    )
    def test_matrix_of_wrong_shape_or_field(self, name, reshape):
        cert = witness(T23)
        with pytest.raises(VerificationError):
            dataclasses.replace(cert, **{name: reshape(getattr(cert, name))}).verify()

    def test_verify_agrees_with_reference(self, rng):
        for cert in certificate_mix(rng):
            cert.verify()
            reference_verify(cert)
            for _ in range(3):
                tampered = dataclasses.replace(cert, **single_field_tamper(rng, cert))
                try:
                    reference_verify(tampered)
                    reference_raised = False
                except LinalgError:  # the reference also raises shape and field errors
                    reference_raised = True
                rejected = raises_verification_error(WitnessCertificate.verify, tampered)
                assert rejected == reference_raised
            # coherent tampers: the reference's rejections are a floor, never a ceiling
            tampered = dataclasses.replace(cert, **coherent_tamper(rng, cert))
            if raises_verification_error(reference_verify, tampered):
                assert raises_verification_error(WitnessCertificate.verify, tampered)

    def test_verify_never_reduces(self, rng, monkeypatch):
        genuine = certificate_mix(rng)
        certs = genuine + [
            dataclasses.replace(c, **tamper(rng, c))
            for c in genuine
            for tamper in (single_field_tamper, coherent_tamper)
        ]
        calls = []
        for name in ("rref", "__pow__", "inverse"):
            plain = getattr(Matrix, name)

            def counting(self, *args, _name=name, _plain=plain):
                calls.append(_name)
                return _plain(self, *args)

            monkeypatch.setattr(Matrix, name, counting)
        for cert in certs:
            try:
                cert.verify()
            except VerificationError:
                pass
        assert calls == []

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
