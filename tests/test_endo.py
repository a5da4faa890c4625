"""Endomorphism arithmetic against the element-level oracle.

Ring operations are cross-checked by applying both sides to every group
element; nothing here trusts the matrix formulas on their own.
"""

import random
import time

import numpy as np
import pytest

from autsplit import matrices as mx
from autsplit.endo import (
    BlockEndo,
    add_endos,
    apply,
    block_endo,
    bpow,
    check_hom_constraints,
    compose,
    corner_mu,
    element_order,
    embed_tail,
    endo_from_json,
    endo_to_json,
    hom_divisor,
    identity_endo,
    identity_q,
    in_delta,
    invert,
    is_automorphism,
    is_identity,
    layout,
    pow_endo,
    pow_rows,
    q_from_json,
    q_is_invertible,
    q_mul,
    q_order,
    q_to_json,
    restrict_to_pk,
    sigma,
    truncate_tail,
    weighted_lift,
    zero_endo,
)
from autsplit.errors import (
    ConstraintViolation,
    NotAUnit,
    PreconditionGap,
    ShapeMismatch,
    SpecMismatch,
)
from autsplit.groups import (
    add_elements,
    aut_order,
    derive_pk_spec,
    enumerate_elements,
    validate_spec,
)
from autsplit.oracle import (
    brute_force_is_bijective,
    random_delta_element,
    random_endo,
    random_unit,
)

SPEC_Z2_Z4 = validate_spec(2, [(1, 1), (2, 1)])
SPEC_25 = validate_spec(5, [(2, 1)])

ORACLE_SPECS = [
    SPEC_Z2_Z4,
    validate_spec(2, [(2, 2)]),
    validate_spec(3, [(1, 1), (2, 1)]),
    validate_spec(5, [(2, 1)]),
]


class TestStackKernel:
    """The (N, D, D) stack kernel against the row-tuple arithmetic."""

    # int64 entries, and entries up to 65537^2 > 2^32 on Python ints
    KERNEL_SPECS = [((3, [(1, 1), (2, 2)]), np.int64),
                    ((65537, [(2, 2)]), object)]

    @pytest.mark.parametrize("key,dtype", KERNEL_SPECS)
    def test_layout_arrays(self, key, dtype):
        lay = layout(validate_spec(*key))
        assert lay.dtype is dtype
        for arr in (lay.mods, lay.ident):
            assert arr.dtype == dtype
            assert not arr.flags.writeable
        assert lay.mods.tolist() == [[m] for m in lay.moduli]
        assert lay.ident.tolist() == [list(row) for row in lay.identity]
        with pytest.raises(ValueError):
            lay.ident[0, 0] = 0

    @pytest.mark.parametrize("key,dtype", KERNEL_SPECS)
    def test_bpow_and_is_identity_match_pow_rows(self, key, dtype):
        spec = validate_spec(*key)
        lay = layout(spec)
        rng = random.Random(0)
        rows = [identity_endo(spec).rows] + [
            random_delta_element(spec, rng).rows for _ in range(5)]
        stack = np.array(rows, dtype=lay.dtype)
        assert stack.dtype == dtype
        masks = []
        for m in (0, 1, 2, spec.p - 1, spec.p, spec.p ** 2 + 1):
            got = bpow(lay, stack, m)
            want = [pow_rows(a, m, lay) for a in rows]
            assert got.tolist() == [[list(r) for r in w] for w in want]
            mask = is_identity(lay, got).tolist()
            assert mask == [w == lay.identity for w in want]
            masks += mask
        assert True in masks and False in masks

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_dtype_decided_without_squaring_a_huge_modulus(self, p):
        # the rule that squares p^n - 1, on both sides of 2^63 and of 2^32
        for D in range(1, 7):
            sides = set()
            for n in range(1, 70):
                big = p ** n - 1
                old = np.int64 if D * big ** 2 < 2 ** 63 else object
                assert layout(validate_spec(p, [(n, D)])).dtype is old
                sides.add((old, big < 2 ** 32))
            assert {(np.int64, True), (object, False)} <= sides

    def test_dtype_of_a_long_exponent_is_quick(self):
        spec = validate_spec(2, [(10 ** 7, 1)])
        start = time.monotonic()
        assert layout(spec).dtype is object
        assert time.monotonic() - start < 1


class TestConstruction:
    def test_hom_divisor(self):
        spec = validate_spec(3, [(1, 1), (4, 1)])
        assert hom_divisor(spec, 0, 1) == 1  # big source into small target
        assert hom_divisor(spec, 1, 0) == 27  # small source into big target

    def test_divisibility_enforced(self):
        with pytest.raises(ConstraintViolation):
            block_endo(SPEC_Z2_Z4, [[((1,),), ((0,),)],
                                    [((1,),), ((1,),)]])  # cell (2,1) must be even

    def test_shape_enforced(self):
        bad = BlockEndo(spec=SPEC_Z2_Z4, rows=mx.identity(1))
        with pytest.raises(ShapeMismatch):
            check_hom_constraints(bad)
        with pytest.raises(ShapeMismatch):
            block_endo(SPEC_Z2_Z4, [[mx.identity(1)]])

    def test_canonical_reduction(self):
        e = block_endo(SPEC_25, [[((26,),)]])
        assert e.cell(0, 0) == ((1,),)

    def test_spec_mismatch(self):
        a = identity_endo(SPEC_Z2_Z4)
        b = identity_endo(SPEC_25)
        with pytest.raises(SpecMismatch):
            compose(a, b)


class TestRingOperations:
    """Everything validated pointwise on the underlying group."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
    def test_apply_linearity(self, spec):
        rng = random.Random(1)
        elems = list(enumerate_elements(spec))
        for _ in range(20):
            e = random_endo(spec, rng)
            for _ in range(10):
                v = rng.choice(elems)
                w = rng.choice(elems)
                assert apply(e, add_elements(spec, v, w)) == add_elements(
                    spec, apply(e, v), apply(e, w))

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
    def test_compose_matches_function_composition(self, spec):
        rng = random.Random(2)
        elems = list(enumerate_elements(spec))
        for _ in range(30):
            a = random_endo(spec, rng)
            b = random_endo(spec, rng)
            ab = compose(a, b)
            for v in elems:
                assert apply(ab, v) == apply(a, apply(b, v))

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
    def test_add_matches_pointwise_sum(self, spec):
        rng = random.Random(3)
        elems = list(enumerate_elements(spec))
        for _ in range(30):
            a = random_endo(spec, rng)
            b = random_endo(spec, rng)
            s = add_endos(a, b)
            for v in elems:
                assert apply(s, v) == add_elements(spec, apply(a, v),
                                                   apply(b, v))

    def test_identity_and_zero(self):
        for spec in ORACLE_SPECS:
            rng = random.Random(5)
            e = random_endo(spec, rng)
            ident = identity_endo(spec)
            assert compose(ident, e) == e
            assert compose(e, ident) == e
            assert compose(zero_endo(spec), e) == zero_endo(spec)

    def test_pow_endo(self):
        rng = random.Random(6)
        e = random_endo(SPEC_Z2_Z4, rng)
        acc = identity_endo(SPEC_Z2_Z4)
        for k in range(6):
            assert pow_endo(e, k) == acc
            acc = compose(acc, e)


class TestSigmaAndUnits:
    def test_sigma_is_multiplicative(self):
        rng = random.Random(7)
        for spec in ORACLE_SPECS:
            for _ in range(50):
                a = random_endo(spec, rng)
                b = random_endo(spec, rng)
                assert sigma(compose(a, b)) == q_mul(sigma(a), sigma(b))

    def test_unit_criterion_against_brute_force(self):
        rng = random.Random(8)
        for spec in ORACLE_SPECS:
            for _ in range(200):
                e = random_endo(spec, rng)
                assert is_automorphism(e) == brute_force_is_bijective(e)

    def test_q_order_and_invertibility(self):
        q = sigma(identity_endo(SPEC_25))
        assert q_is_invertible(q)
        assert q_order(q) == 1
        q2 = q_from_json(SPEC_25, [[[2]]])
        assert q_order(q2) == 4  # 2 generates the units of F_5

    def test_in_delta(self):
        rng = random.Random(9)
        for spec in ORACLE_SPECS:
            assert in_delta(identity_endo(spec))
            assert not in_delta(zero_endo(spec))
            for _ in range(20):
                d = random_delta_element(spec, rng)
                assert in_delta(d)
                assert sigma(d) == identity_q(spec)


class TestWeightedLift:
    def test_unit_iff_lift_invertible(self):
        rng = random.Random(10)
        spec = SPEC_Z2_Z4
        big = spec.moduli[-1]
        for _ in range(100):
            e = random_endo(spec, rng)
            L = weighted_lift(e)
            try:
                mx.inv_mod(L, big, spec.p)
                invertible = True
            except NotAUnit:
                invertible = False
            assert invertible == is_automorphism(e)

    def test_products_respected_per_column_block(self):
        rng = random.Random(11)
        spec = validate_spec(2, [(1, 1), (2, 1), (3, 1)])
        for _ in range(100):
            a = random_endo(spec, rng)
            b = random_endo(spec, rng)
            big = spec.moduli[-1]
            prod = mx.mat_mul(weighted_lift(a), weighted_lift(b), big)
            lifted = weighted_lift(compose(a, b))
            col = 0
            for k, (nk, rk) in enumerate(spec.blocks):
                m = spec.p ** nk
                for i in range(spec.total_rank):
                    for j in range(col, col + rk):
                        assert prod[i][j] % m == lifted[i][j] % m
                col += rk

    def test_products_not_respected_mod_largest(self):
        # the stronger congruence mod p^(n_R) genuinely fails
        spec = SPEC_Z2_Z4
        a = block_endo(spec, [[((1,),), ((0,),)], [((2,),), ((1,),)]])
        prod = mx.mat_mul(weighted_lift(a), weighted_lift(a), 4)
        lifted = weighted_lift(compose(a, a))
        assert prod != lifted
        assert prod[1][0] % 2 == lifted[1][0] % 2  # but holds mod p^(n_1)


class TestInverse:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
    def test_two_sided_inverse(self, spec):
        rng = random.Random(12)
        ident = identity_endo(spec)
        for _ in range(30):
            e = random_unit(spec, rng)
            inv = invert(e)
            assert compose(e, inv) == ident
            assert compose(inv, e) == ident

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            invert(zero_endo(SPEC_25))


class TestElementOrder:
    def test_against_naive_iteration(self):
        rng = random.Random(13)
        for spec in ORACLE_SPECS:
            ident = identity_endo(spec)
            for _ in range(10):
                e = random_unit(spec, rng)
                o = element_order(e)
                assert pow_endo(e, o) == ident
                x = e
                naive = 1
                while x != ident:
                    x = compose(x, e)
                    naive += 1
                assert o == naive

    def test_order_divides_group_order(self):
        rng = random.Random(14)
        for spec in ORACLE_SPECS:
            for _ in range(10):
                assert aut_order(spec) % element_order(
                    random_unit(spec, rng)) == 0

    def test_scalar_example(self):
        e = block_endo(SPEC_25, [[((7,),)]])
        assert element_order(e) == 4  # 7^2 = 49 = -1 mod 25


class TestInducedMaps:
    def test_restrict_commuting_square(self):
        spec = validate_spec(2, [(1, 1), (2, 1), (3, 1)])
        sub = derive_pk_spec(spec, 1)
        rng = random.Random(15)
        keep = [i for i, (n, _) in enumerate(spec.blocks) if n > 1]
        for _ in range(20):
            e = random_unit(spec, rng)
            r = restrict_to_pk(e, 1)
            assert r.spec == sub
            for w in enumerate_elements(sub):
                # w corresponds to the ambient element with coordinates 2w
                up = tuple(
                    tuple(2 * x for x in w[keep.index(i)]) if i in keep
                    else (0,) * spec.ranks[i]
                    for i in range(spec.num_blocks))
                down = apply(e, tuple(tuple(x % m for x in v)
                                      for v, m in zip(up, spec.moduli)))
                expect = tuple(
                    tuple(2 * x % m for x in v)
                    for v, m in zip(apply(r, w),
                                    [spec.moduli[i] for i in keep]))
                assert tuple(down[i] for i in keep) == expect

    def test_truncation_not_multiplicative(self):
        spec = SPEC_Z2_Z4
        found = False
        units = [e for e in _all_endos_z2z4() if is_automorphism(e)]
        for a in units:
            for b in units:
                if truncate_tail(compose(a, b)) != compose(
                        truncate_tail(a), truncate_tail(b)):
                    found = True
                    break
            if found:
                break
        assert found

    def test_truncation_multiplicative_mod_p(self):
        rng = random.Random(16)
        spec = SPEC_Z2_Z4
        for _ in range(500):
            a = random_unit(spec, rng)
            b = random_unit(spec, rng)
            lhs = sigma(truncate_tail(compose(a, b)))
            rhs = q_mul(sigma(truncate_tail(a)), sigma(truncate_tail(b)))
            assert lhs == rhs

    def test_embed_section_of_truncation(self):
        spec = SPEC_Z2_Z4
        rng = random.Random(17)
        tail = validate_spec(2, [(2, 1)])
        for _ in range(50):
            e2 = random_endo(tail, rng)
            assert truncate_tail(embed_tail(e2, spec)) == e2
        a2 = random_endo(tail, rng)
        b2 = random_endo(tail, rng)
        assert embed_tail(compose(a2, b2), spec) == compose(
            embed_tail(a2, spec), embed_tail(b2, spec))

    def test_embed_warns_on_nonelementary_head(self):
        spec = validate_spec(2, [(2, 1), (3, 1)])
        tail = validate_spec(2, [(3, 1)])
        with pytest.warns(UserWarning):
            embed_tail(identity_endo(tail), spec)

    def test_corner_mu_multiplicative_in_range(self):
        spec = validate_spec(3, [(2, 1), (4, 1)])
        rng = random.Random(18)
        for _ in range(200):
            a = random_unit(spec, rng)
            b = random_unit(spec, rng)
            assert corner_mu(compose(a, b)) == mx.mat_mul(
                corner_mu(a), corner_mu(b), 9)

    def test_corner_mu_strictness(self):
        spec = validate_spec(3, [(2, 1), (3, 1)])  # gap too small
        e = identity_endo(spec)
        with pytest.raises(PreconditionGap):
            corner_mu(e)
        with pytest.warns(UserWarning):
            assert corner_mu(e, strict=False) == ((1,),)


def _all_endos_z2z4():
    from autsplit.oracle import enumerate_endos
    return list(enumerate_endos(SPEC_Z2_Z4))


class TestSerialization:
    def test_endo_round_trip(self):
        rng = random.Random(19)
        for spec in ORACLE_SPECS:
            for _ in range(20):
                e = random_endo(spec, rng)
                assert endo_from_json(spec, endo_to_json(e)) == e

    def test_endo_json_rejects_violation(self):
        with pytest.raises(ConstraintViolation) as exc:
            endo_from_json(SPEC_Z2_Z4,
                           {"cells": [[[[1]], [[0]]], [[[1]], [[1]]]]})
        assert "(1,0)" in str(exc.value)

    def test_q_round_trip(self):
        rng = random.Random(20)
        for spec in ORACLE_SPECS:
            q = sigma(random_unit(spec, rng))
            assert q_from_json(spec, q_to_json(q)) == q

    @pytest.mark.parametrize("entry", [1.0, True, "1", None, [1]])
    def test_entries_must_be_ints(self, entry):
        with pytest.raises(ConstraintViolation, match="not an integer"):
            endo_from_json(SPEC_Z2_Z4, {"cells": [[[[entry]], [[0]]],
                                                  [[[0]], [[1]]]]})
        with pytest.raises(ConstraintViolation, match="not an integer"):
            q_from_json(SPEC_Z2_Z4, [[[1]], [[entry]]])

    @pytest.mark.parametrize("obj", [
        None, 1, "ab", [[[[1]], [[0]]]], [[[1, 0]], [[0]]], [[1, 0], [0, 1]],
        [[[[1]], [[0]]], [[[0]], [[1]]], [[[0]], [[1]]]],
    ])
    def test_cell_grid_nesting(self, obj):
        with pytest.raises(ShapeMismatch):
            block_endo(SPEC_Z2_Z4, obj)
        with pytest.raises(ShapeMismatch):
            q_from_json(SPEC_Z2_Z4, obj)
