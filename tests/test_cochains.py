import json
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from leibniz_complex.brackets import theta, zeta
from leibniz_complex.cochains import (Cochain, CochainFormatError, CochainShapeError,
                                      ContextMismatchError, InvalidCochainError, coboundary,
                                      cochain_from_dict, cochain_space_basis, cochain_to_dict,
                                      cup, load_cochain, position_splits, split_sign,
                                      validate_cochain)
from leibniz_complex.duality import flat_cochain
from leibniz_complex.algebra import basis_vec
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import check_d_squared

F = Fraction
Z1 = SymPoly.generator(1, 0)


# -- validity ---------------------------------------------------------------


def test_zeta_is_valid(o1):
    # zeta_0(e1,e2) + zeta_0(e2,e1) = 2(e1,e2) = -zeta_1((e1,e2))
    assert validate_cochain(o1, zeta(o1)).ok


def test_fully_skew_cochain_is_valid(o1):
    omega = Cochain(2, 1, {0: {((0, 1), ()): Z1, ((1, 0), ()): -Z1}})
    assert validate_cochain(o1, omega).ok


def test_sign_flipped_zeta_tail_is_invalid(o1):
    flipped = Cochain(2, 1, {
        0: dict(zeta(o1).components[0]),
        1: {((), (0,)): SymPoly.monomial(1, (0,), 2)},
    })
    report = validate_cochain(o1, flipped)
    assert not report.ok
    k, pos, es, fs, lhs, rhs = report.violations[0]
    assert (k, pos, es) == (0, 0, (0, 1))  # located at the (a, b) pair


def test_validate_shape_error():
    with pytest.raises(CochainShapeError):
        Cochain(2, 1, {0: {((0,), ()): Z1}})
    with pytest.raises(CochainShapeError):
        Cochain(1, 1, {1: {((), (0,)): Z1}})


# -- the differential ----------------------------------------------------------


def test_coboundary_of_constant(o1):
    # p = b: (dp)(a) = rho(a) b = b, (dp)(b) = 0
    dp = coboundary(o1, Cochain.constant(Z1))
    assert dp.value(0, (0,), ()) == Z1
    assert dp.value(0, (1,), ()).is_zero()


def test_d_squared_on_constant(o1):
    dp = coboundary(o1, Cochain.constant(Z1))
    assert coboundary(o1, dp).is_zero()


def test_d_zeta_is_theta(o1, o2, a3, aff_o1):
    for ctx in (o1, o2, a3, aff_o1):
        assert coboundary(ctx, zeta(ctx)) == theta(ctx)


def test_d_zeta_components_on_o1(o1):
    # (d zeta)_0(e1,e2,e3) = (e1.e2, e3) and (d zeta)_1(e; f) = -(e, f)
    dz = coboundary(o1, zeta(o1))
    assert dz.value(0, (0, 1, 0), ()) == Z1          # (a.b, a) = (b, a) = b
    assert dz.value(0, (0, 1, 1), ()).is_zero()      # (b, b) = 0
    assert dz.value(1, (0,), (0,)) == -Z1            # -(a, b)
    assert dz.value(1, (1,), (0,)).is_zero()         # -(b, b) = 0


def test_coboundary_rejects_invalid_input(o1):
    bad = Cochain(2, 1, {0: {((0, 1), ()): Z1}})  # not weakly skew
    with pytest.raises(InvalidCochainError):
        coboundary(o1, bad)


def test_coboundary_rejects_cochains_over_another_center(o1, o2, a3):
    # zeta(O1) has one center generator: O2 has two, A3 three; the mismatch
    # is named before validation can misread theta as not skew-symmetric
    for ctx, omega in ((o2, zeta(o1)), (a3, theta(o1)), (o1, zeta(o2))):
        with pytest.raises(ContextMismatchError):
            coboundary(ctx, omega)


def test_d_squared_zero_reports(o1):
    assert coboundary(o1, coboundary(o1, zeta(o1))).is_zero()
    report = check_d_squared(o1, "O1", 3)
    assert report.passed
    assert report.counterexample is None


def test_abelian_differential_is_delta_only(a3):
    # on an abelian algebra both action and bracket terms vanish
    omega = Cochain(1, 3, {0: {((0,), ()): SymPoly.generator(3, 1)}})
    d_omega = coboundary(a3, omega)
    assert d_omega.value(0, (0, 1), ()).is_zero()
    assert d_omega.value(1, (), (0,)) == SymPoly.generator(3, 1)  # delta inserts f first


# -- the product -----------------------------------------------------------------


def test_cup_square_of_odd_cochain_vanishes(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert cup(o1, fa, fa).is_zero()


def test_cup_two_flats_hand_expansion(o1):
    # (a-flat . b-flat)(a, b) = a-flat(a) b-flat(b) - a-flat(b) b-flat(a) = -b^2
    fa = flat_cochain(o1, basis_vec(2, 0))
    fb = flat_cochain(o1, basis_vec(2, 1))
    prod = cup(o1, fa, fb)
    assert prod.value(0, (0, 1), ()) == SymPoly.monomial(1, (0, 0), -1)
    assert prod.value(0, (1, 0), ()) == SymPoly.monomial(1, (0, 0), 1)
    assert prod.value(0, (0, 0), ()).is_zero()


def test_cup_rejects_cochains_over_another_center(o1, o2):
    for omega, eta in ((zeta(o1), zeta(o2)), (zeta(o2), zeta(o1)), (zeta(o1), zeta(o1))):
        with pytest.raises(ContextMismatchError):
            cup(o2, omega, eta)


def test_cup_unit(o1):
    one = Cochain.constant(SymPoly.constant(1, 1))
    omega = zeta(o1)
    assert cup(o1, one, omega) == omega
    assert cup(o1, omega, one) == omega


def test_cup_outputs_are_valid(o1):
    rng = Random(0)
    basis2 = cochain_space_basis(o1, 2)
    for omega in basis2:
        for eta in basis2:
            assert validate_cochain(o1, cup(o1, omega, eta)).ok
            assert validate_cochain(o1, coboundary(o1, omega)).ok


def test_graded_commutativity_small(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    fb = flat_cochain(o1, basis_vec(2, 1))
    assert cup(o1, fa, fb) == cup(o1, fb, fa).scale(-1)  # odd times odd
    z = zeta(o1)
    assert cup(o1, z, fa) == cup(o1, fa, z)  # even times odd


def test_graded_leibniz_small(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    fb = flat_cochain(o1, basis_vec(2, 1))
    lhs = coboundary(o1, cup(o1, fa, fb))
    rhs = cup(o1, coboundary(o1, fa), fb) - cup(o1, fa, coboundary(o1, fb))
    assert lhs == rhs


# -- shuffles ----------------------------------------------------------------------


def brute_sign(seq):
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def test_split_sign_matches_permutation_parity():
    for n in range(6):
        for p in range(n + 1):
            splits = list(position_splits(n, p))
            for left, right in splits:
                assert split_sign(left, right) == brute_sign(left + right)
            # splits enumerate each p-subset exactly once, in lexicographic order
            assert [s[0] for s in splits] == sorted(s[0] for s in splits)
            assert len(splits) == len({s[0] for s in splits})


def test_shuffles_partition_all_permutations():
    # signed shuffle sum equals the signed sum over all permutations that
    # keep each block ordered
    n, p = 4, 2
    block_orders = []
    for perm in permutations(range(n)):
        left, right = perm[:p], perm[p:]
        if list(left) == sorted(left) and list(right) == sorted(right):
            block_orders.append((left, right))
    assert sorted(block_orders) == sorted(position_splits(n, p))


# -- the basis of the valid cochain space ---------------------------------------------


def test_basis_cochains_are_valid_and_independent(o1, o2):
    for ctx, degree in ((o1, 3), (o2, 2)):
        basis = cochain_space_basis(ctx, degree)
        assert basis
        for omega in basis:
            assert validate_cochain(ctx, omega).ok
        # distinct leading keys because the kernel basis is echelonized
        assert len({next(iter(sorted(
            (k, key) for k, table in b.components.items() for key in table)))
            for b in basis}) == len(basis)


def test_basis_dimensions_o1(o1):
    assert len(cochain_space_basis(o1, 0)) == 1
    assert len(cochain_space_basis(o1, 1)) == 2
    # degree 2: 5 unknowns, 3 constraints
    assert len(cochain_space_basis(o1, 2)) == 2


def test_single_key_tables_are_not_cochains(a3):
    # the indicator of one key violates weak skew-symmetry
    omega = Cochain(2, 3, {0: {((0, 1), ()): SymPoly.constant(3, 1)}})
    assert not validate_cochain(a3, omega).ok


def test_validation_covers_partially_descending_tuples(a3):
    # the constraint at the sorted pair inside (1,0,0) must still be seen
    omega = Cochain(3, 3, {0: {((1, 0, 0), ()): SymPoly.constant(3, 1)}})
    report = validate_cochain(a3, omega)
    assert not report.ok
    positions = {(v[0], v[1]) for v in report.violations}
    assert (0, 1) in positions or (0, 0) in positions


# -- files -------------------------------------------------------------------------


def test_cochain_json_roundtrip(tmp_path, o1):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(cochain_to_dict(theta(o1))))
    assert load_cochain(o1, path) == theta(o1)


def test_cochain_dict_shape():
    data = cochain_to_dict(Cochain(1, 1, {0: {((0,), ()): Z1}}))
    assert data == {"degree": 1,
                    "components": [{"k": 0, "entries": [
                        {"es": [0], "fs": [], "value": "z1"}]}]}


def test_cochain_format_errors(o1):
    with pytest.raises(CochainFormatError):
        cochain_from_dict(o1, {"components": []})
    with pytest.raises(CochainFormatError):
        cochain_from_dict(o1, {"degree": 1, "components": [
            {"k": 0, "entries": [{"es": [9], "fs": [], "value": "z1"}]}]})
    with pytest.raises(CochainFormatError):
        cochain_from_dict(o1, {"degree": 1, "components": [
            {"k": 0, "entries": [{"es": [0], "fs": [], "value": "zz"}]}]})
    with pytest.raises(CochainFormatError):
        cochain_from_dict(o1, {"degree": 2, "components": [
            {"k": 0, "entries": [{"es": [0], "fs": [], "value": "z1"}]}]})
    # indices must be ints: no strings, floats or booleans
    for es, fs in ((["a"], []), ([0], ["b"]), ([0.5], []), ([True], []), ([0], [False])):
        with pytest.raises(CochainFormatError):
            cochain_from_dict(o1, {"degree": len(es) + 2 * len(fs), "components": [
                {"k": len(fs), "entries": [{"es": es, "fs": fs, "value": "z1"}]}]})
    for degree, k, entries in ((True, 0, []), (2, True, []), (2, [0], []), (1, 0, 5)):
        with pytest.raises(CochainFormatError):
            cochain_from_dict(o1, {"degree": degree, "components": [
                {"k": k, "entries": entries}]})
    with pytest.raises(CochainFormatError):
        cochain_from_dict(o1, {"degree": 1, "components": 5})


def test_zero_cochain_addition_across_degrees(o1):
    zero0 = Cochain.zero(0, 1)
    z = zeta(o1)
    assert zero0 + z == z
    with pytest.raises(CochainShapeError):
        Cochain.constant(Z1) + z
