import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from leibniz_complex.algebra import (AlgebraFormatError, IntegrityError, InvalidAlgebraError,
                                     LeibnizAlgebra, PreconditionError, UnknownFixtureError,
                                     algebra_from_dict, algebra_to_dict, basis_vec,
                                     build_fixture, check_leibniz, load_algebra,
                                     quotient_by_kernel, zero_vec)
from leibniz_complex.sympoly import SymPoly

F = Fraction


def broken_dim2():
    # a.a = a, everything else zero: not a Leibniz algebra
    table = [[basis_vec(2, 0), zero_vec(2)], [zero_vec(2), zero_vec(2)]]
    return LeibnizAlgebra(["a", "b"], table)


def aff1():
    # the nonabelian 2-dimensional Lie algebra: x.y = y, y.x = -y
    table = [[zero_vec(2), basis_vec(2, 1)],
             [(F(0), F(-1)), zero_vec(2)]]
    return LeibnizAlgebra(["x", "y"], table)


def test_check_leibniz_abelian():
    assert check_leibniz(build_fixture("A3")).ok


def test_check_leibniz_o1_exhaustive():
    # by hand: the only nonzero product is a.b = b, and every triple balances
    assert check_leibniz(build_fixture("O1")).ok


def test_check_leibniz_violation():
    report = check_leibniz(broken_dim2())
    assert not report.ok
    i, j, l, lhs, rhs = report.violations[0]
    assert (i, j, l) == (0, 0, 0)
    # a.(a.a) = a but (a.a).a + a.(a.a) = 2a
    assert lhs == (F(1), F(0))
    assert rhs == (F(2), F(0))


def test_left_center_abelian_is_everything(algebras):
    assert algebras["A3"].z_basis == (basis_vec(3, 0), basis_vec(3, 1), basis_vec(3, 2))


def test_left_center_o1():
    # (alpha a + beta b).b = alpha b forces alpha = 0
    assert build_fixture("O1").z_basis == ((F(0), F(1)),)


def test_left_center_o2_is_vector_part(algebras):
    assert algebras["O2"].z_basis == (basis_vec(6, 4), basis_vec(6, 5))


def test_symmetric_product_o1(algebras):
    alg = algebras["O1"]
    a, b = basis_vec(2, 0), basis_vec(2, 1)
    assert alg.pairing_poly(a, b) == SymPoly.generator(1, 0)   # a.b + b.a = b
    assert alg.pairing_poly(a, a).is_zero()


def test_symmetric_product_o2_av_plus_bu(algebras):
    alg = algebras["O2"]
    z1 = SymPoly.generator(2, 0)
    # (E11, 0) paired with (0, u1): E11 u1 = u1
    e11, u1 = basis_vec(6, 0), basis_vec(6, 4)
    assert alg.pairing_poly(e11, u1) == z1
    # (E12, 0) with (0, u2): E12 u2 = u1
    e12, u2 = basis_vec(6, 1), basis_vec(6, 5)
    assert alg.pairing_poly(e12, u2) == z1
    assert alg.pairing_poly(e11, e11).is_zero()


def z_coordinates(alg, v):
    """Coordinates of v over alg.z_basis, solved for here: each basis
    vector is 1 at its leading index and 0 at the others'."""
    coords = [v[next(t for t, c in enumerate(z) if c != 0)] for z in alg.z_basis]
    assert tuple(sum((c * z[t] for c, z in zip(coords, alg.z_basis)), 0)
                 for t in range(alg.dim)) == tuple(v)
    return coords


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)"))
def test_pairing_poly_is_the_symmetrized_bracket(name):
    """(v, w) equals the Z-coordinates of v.w + w.v on seeded integer vectors."""
    alg = build_fixture(name)
    rng = Random(41)
    for _ in range(30):
        v, w = (tuple(rng.randint(-3, 3) for _ in range(alg.dim)) for _ in range(2))
        vw, wv = alg.bracket(v, w), alg.bracket(w, v)
        coords = z_coordinates(alg, [a + b for a, b in zip(vw, wv)])
        expected = SymPoly(alg.zdim, {(r,): c for r, c in enumerate(coords)})
        assert alg.pairing_poly(v, w) == expected, (v, w)


def test_symmetric_product_integrity_error():
    alg = broken_dim2()
    with pytest.raises(IntegrityError):
        alg.pairing_poly(basis_vec(2, 0), basis_vec(2, 0))
    with pytest.raises(IntegrityError):
        alg.pairing_poly((F(1), F(2)), (F(3), F(0)))
    with pytest.raises(IntegrityError):
        alg.pairing_poly_basis(0, 0)
    # a.b = a: Z = span(b), and e_a moves b to a, outside Z
    moves_center = LeibnizAlgebra(["a", "b"], [[zero_vec(2), basis_vec(2, 0)],
                                               [zero_vec(2), zero_vec(2)]])
    assert moves_center.z_basis == (basis_vec(2, 1),)
    with pytest.raises(IntegrityError):
        moves_center.rho_basis(0, SymPoly.generator(1, 0))


def test_rho_o1(algebras):
    alg = algebras["O1"]
    z = SymPoly.generator(1, 0)
    assert alg.rho_basis(0, z) == z            # a.b = b
    assert alg.rho_basis(1, z).is_zero()       # b is in the left center
    assert alg.rho_basis(0, z * z) == SymPoly.monomial(1, (0, 0), 2)


def test_pairing_kernel_o1_trivial(algebras):
    assert algebras["O1"].kernel_basis == ()


def test_pairing_kernel_lie_algebra_is_everything():
    alg = aff1()
    assert len(alg.kernel_basis) == 2


def test_pairing_kernel_aff_o1_block(algebras):
    assert algebras["AFF_O1"].kernel_basis == (basis_vec(4, 0), basis_vec(4, 1))


def _sympy_kernel(rows, dim):
    """Reduced echelon basis of the null space of `rows`, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    vectors = sympy.Matrix(rows).nullspace()
    if not vectors:
        return ()
    echelon = sympy.Matrix.hstack(*vectors).T.rref()[0]
    return tuple(tuple(F(int(c.p), int(c.q)) for c in echelon.row(r))
                 for r in range(echelon.rows) if any(echelon.row(r)))


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)", "aff1"))
def test_centers_and_kernel_against_sympy(name):
    """z_basis, kernel_basis and two_sided_center() against null spaces of
    matrices built from products of basis vectors, not from the table."""
    alg = aff1() if name == "aff1" else build_fixture(name)
    dim, e = alg.dim, [basis_vec(alg.dim, i) for i in range(alg.dim)]
    left = [[alg.bracket(e[i], e[j])[t] for i in range(dim)] for j in range(dim) for t in range(dim)]
    right = [[alg.bracket(e[j], e[i])[t] for i in range(dim)] for j in range(dim) for t in range(dim)]
    pairing = [[a + b for a, b in zip(row_l, row_r)] for row_l, row_r in zip(left, right)]
    assert alg.z_basis == _sympy_kernel(left, dim)
    assert alg.kernel_basis == _sympy_kernel(pairing, dim)
    assert alg.two_sided_center() == _sympy_kernel(left + right, dim)


def test_construction_work(monkeypatch):
    # products enter the center and pairing tables straight from the
    # structure table; only the action on Z goes through bracket
    calls = []
    bracket = LeibnizAlgebra.bracket

    def counted(self, v, w):
        calls.append((v, w))
        return bracket(self, v, w)

    monkeypatch.setattr(LeibnizAlgebra, "bracket", counted)
    alg = build_fixture("omni(4)")
    assert (alg.dim, alg.zdim) == (20, 4)
    assert len(calls) <= alg.dim * alg.zdim


def test_pairing_store_is_a_lookup(algebras):
    alg = algebras["O2"]
    for i, j in product(range(alg.dim), repeat=2):
        value = alg.pairing_poly_basis(i, j)
        assert value is alg.pairing_poly_basis(i, j)
        ei, ej = basis_vec(6, i), basis_vec(6, j)
        coords = alg.z_coords(tuple(a + b for a, b in zip(alg.bracket(ei, ej), alg.bracket(ej, ei))))
        assert value == SymPoly(alg.zdim, {(r,): c for r, c in enumerate(coords)})


def test_is_fat(algebras):
    assert algebras["O1"].is_fat()
    assert algebras["O2"].is_fat()
    assert not algebras["AFF_O1"].is_fat()
    assert not algebras["A3"].is_fat()


def test_quotient_aff_o1_recovers_o1(algebras):
    quotient = quotient_by_kernel(algebras["AFF_O1"])
    reference = build_fixture("O1")
    assert quotient.labels == ("a", "b")
    assert quotient.table == reference.table
    assert quotient.is_fat()
    assert check_leibniz(quotient).ok


def test_quotient_of_fat_algebra_is_itself(algebras):
    quotient = quotient_by_kernel(algebras["O1"])
    assert quotient.table == algebras["O1"].table


def test_quotient_of_aff1_is_zero_algebra():
    quotient = quotient_by_kernel(aff1())
    assert quotient.dim == 0
    assert quotient.is_fat()  # vacuously


def test_quotient_requires_trivial_center(algebras):
    with pytest.raises(PreconditionError):
        quotient_by_kernel(algebras["A3"])


def test_omni1_equals_o1():
    omni1 = build_fixture("omni(1)")
    assert omni1.table == build_fixture("O1").table


def test_omni2_leibniz_exhaustive():
    # oracle: the identity checked over all 216 basis triples
    assert check_leibniz(build_fixture("omni(2)")).ok


def test_omni2_left_center_dim():
    assert build_fixture("omni(2)").zdim == 2


def test_omni_needs_positive_n():
    for name in ("omni(0)", "omni(00)"):
        with pytest.raises(AlgebraFormatError):
            build_fixture(name)
    assert build_fixture("omni(1)").dim == 2


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        build_fixture("nope")


def test_squares_are_left_central(algebras):
    for alg in algebras.values():
        for i, j in product(range(alg.dim), repeat=2):
            e = basis_vec(alg.dim, i)
            square = alg.bracket(e, e)
            assert all(c == 0 for c in alg.bracket(square, basis_vec(alg.dim, j)))


def test_invariance_identity(algebras):
    # (e1.k, e2) + (k, e1.e2) = rho(e1)(k, e2) over all basis triples
    for alg in algebras.values():
        for i, j, l in product(range(alg.dim), repeat=3):
            e1, k, e2 = (basis_vec(alg.dim, t) for t in (i, j, l))
            lhs = alg.pairing_poly(alg.bracket(e1, k), e2) + \
                alg.pairing_poly(k, alg.bracket(e1, e2))
            rhs = alg.rho_basis(i, alg.pairing_poly(k, e2))
            assert lhs == rhs, (i, j, l)


def test_pairing_lands_in_left_center(algebras):
    for alg in algebras.values():
        for i, j in product(range(alg.dim), repeat=2):
            pairing = alg.pairing_poly(basis_vec(alg.dim, i), basis_vec(alg.dim, j))
            z = [0] * alg.dim  # the pairing embedded back into L
            for (r,), c in pairing.items():
                z = [a + c * b for a, b in zip(z, alg.z_basis[r])]
            for l in range(alg.dim):
                assert all(c == 0 for c in alg.bracket(z, basis_vec(alg.dim, l)))


def test_json_roundtrip(tmp_path, algebras):
    path = tmp_path / "o2.json"
    path.write_text(json.dumps(algebra_to_dict(algebras["O2"])))
    loaded = load_algebra(path)
    assert loaded.table == algebras["O2"].table
    assert loaded.labels == algebras["O2"].labels


def test_loader_rejects_invalid_table(tmp_path):
    data = {"dim": 2, "basis": ["a", "b"],
            "brackets": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidAlgebraError):
        load_algebra(path)


def test_loader_shape_errors():
    with pytest.raises(AlgebraFormatError):
        algebra_from_dict({"dim": 2, "basis": ["a"]})
    with pytest.raises(AlgebraFormatError):
        algebra_from_dict({"dim": 2, "basis": ["a", "b"],
                           "brackets": [{"i": 0, "j": 5, "coeffs": ["0", "0"]}]})
    with pytest.raises(AlgebraFormatError):
        algebra_from_dict({"dim": 2, "basis": ["a", "b"],
                           "brackets": [{"i": 0, "j": 0, "coeffs": ["x", "0"]}]})
    with pytest.raises(AlgebraFormatError):
        algebra_from_dict([1, 2, 3])
    # booleans are not indices, and brackets must be a list
    entry = {"i": 0, "j": 1, "coeffs": ["0", "1"]}
    for data in ({"dim": True, "basis": ["a"]},
                 {"dim": 2, "basis": ["a", "b"], "brackets": [dict(entry, i=False)]},
                 {"dim": 2, "basis": ["a", "b"], "brackets": [dict(entry, j=True)]},
                 {"dim": 2, "basis": ["a", "b"], "brackets": 5},
                 {"dim": 2, "basis": ["a", "b"], "brackets": entry}):
        with pytest.raises(AlgebraFormatError):
            algebra_from_dict(data)


def test_omitted_brackets_mean_zero():
    alg = algebra_from_dict({"dim": 2, "basis": ["a", "b"], "brackets": []})
    assert all(all(all(c == 0 for c in entry) for entry in row) for row in alg.table)


def test_roundtrip_dict_stable(algebras):
    data = algebra_to_dict(algebras["AFF_O1"])
    assert algebra_to_dict(algebra_from_dict(data)) == data
