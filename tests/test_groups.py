"""Specs, elements and order formulas.

The counting identities are checked against direct enumeration rather than
asserted from memory: GL orders come from counting invertible matrices one
by one, group orders from listing elements.
"""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autsplit import matrices as mx
from autsplit.errors import (
    BudgetExceeded,
    EmptyBlocks,
    NonIncreasingExponents,
    NonPrime,
    SingleBlock,
    SpecError,
    TrivialResult,
    ZeroRank,
)
from autsplit.groups import (
    PRIME_TEST_BOUND,
    PGroupSpec,
    _factorize,
    _is_prime,
    add_elements,
    aut_order,
    delta_order,
    derive_pk_spec,
    derive_tail_spec,
    enumerate_elements,
    gl_order,
    group_order,
    pi_order,
    primitive_root,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from conftest import FIXTURE_SPECS_SMALL


class TestValidateSpec:
    def test_accepts_good_spec(self):
        spec = validate_spec(3, [(1, 2), (3, 1)])
        assert spec.p == 3
        assert spec.blocks == ((1, 2), (3, 1))
        assert spec.exponents == (1, 3)
        assert spec.ranks == (2, 1)
        assert spec.moduli == (3, 27)
        assert spec.total_rank == 3

    def test_rejects_nonprime(self):
        with pytest.raises(NonPrime):
            validate_spec(6, [(1, 1)])
        with pytest.raises(NonPrime):
            validate_spec(1, [(1, 1)])

    def test_rejects_empty_blocks(self):
        with pytest.raises(EmptyBlocks):
            validate_spec(2, [])

    def test_rejects_zero_rank(self):
        with pytest.raises(ZeroRank):
            validate_spec(2, [(1, 0)])

    def test_rejects_bad_exponent(self):
        with pytest.raises(SpecError):
            validate_spec(2, [(0, 1)])

    def test_rejects_nonincreasing_exponents(self):
        with pytest.raises(NonIncreasingExponents):
            validate_spec(2, [(2, 1), (2, 1)])
        with pytest.raises(NonIncreasingExponents):
            validate_spec(2, [(3, 1), (1, 1)])


class TestStrictSpecValues:
    @pytest.mark.parametrize("p,blocks", [
        (2, [("abc", 1)]), (2, [(2.7, True)]), (2, [(1, 1.0)]),
        (2.0, [(1, 1)]), (True, [(1, 1)]), ("5", [(1, 1)]), (2, [(1, None)]),
    ])
    def test_non_integers_rejected(self, p, blocks):
        with pytest.raises(SpecError, match="is not an integer"):
            validate_spec(p, blocks)

    def test_json_values_are_not_coerced(self):
        with pytest.raises(SpecError):
            spec_from_json({"p": 2, "blocks": [{"n": 2.7, "r": True}]})


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(10 ** 4) if _is_prime(n)] == \
            [n for n in range(10 ** 4) if _trial_division(n)]

    def test_large_mersenne_prime_accepted(self):
        assert validate_spec(2 ** 61 - 1, [(1, 1)]).p == 2 ** 61 - 1

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                                   41041, 825265, 321197185,
                                   3825123056546413051])
    def test_carmichael_and_strong_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)
        with pytest.raises(NonPrime):
            validate_spec(n, [(1, 1)])

    def test_past_the_bound_rejected(self):
        for p in (PRIME_TEST_BOUND, 2 ** 89 - 1):
            with pytest.raises(SpecError, match="bound"):
                validate_spec(p, [(1, 1)])


class TestNumberTheory:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 65537])
    def test_factorize_p_power_minus_one(self, p):
        for k in range(1, 7):
            n = p ** k - 1
            factors = _factorize(n)
            assert all(_is_prime(q) for q in factors)
            assert list(factors) == sorted(factors)
            assert math.prod(q ** m for q, m in factors.items()) == n

    def test_factorize_large_semiprime(self):
        q1 = next(q for q in itertools.count(2 ** 40 + 1, 2) if _is_prime(q))
        q2 = next(q for q in itertools.count(2 ** 41 + 1, 2) if _is_prime(q))
        assert _factorize(q1 * q2) == {q1: 1, q2: 1}
        assert _factorize(q1 ** 2 * 1000003 * 8) == {2: 3, 1000003: 1, q1: 2}

    def test_primitive_root_is_the_smallest(self):
        for p in filter(_trial_division, range(500)):
            smallest = next(
                g for g in range(1, p)
                if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
            assert primitive_root(p) == smallest, p


class TestSpecJson:
    def test_round_trip(self):
        spec = validate_spec(5, [(2, 1), (4, 3)])
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(NonIncreasingExponents):
            spec_from_json({"p": 2, "blocks": [{"n": 2, "r": 1},
                                               {"n": 1, "r": 1}]})

    def test_rejects_missing_keys(self):
        with pytest.raises(SpecError):
            spec_from_json({"p": 2})
        with pytest.raises(SpecError):
            spec_from_json({"p": 2, "blocks": [{"n": 1}]})


SPEC_Z2_Z4 = validate_spec(2, [(1, 1), (2, 1)])

elements_z2_z4 = st.tuples(
    st.tuples(st.integers(0, 1)), st.tuples(st.integers(0, 3)))


class TestElements:
    @given(elements_z2_z4, elements_z2_z4)
    def test_add_commutes(self, a, b):
        assert add_elements(SPEC_Z2_Z4, a, b) == add_elements(SPEC_Z2_Z4, b, a)

    @given(elements_z2_z4, elements_z2_z4, elements_z2_z4)
    def test_add_associates(self, a, b, c):
        lhs = add_elements(SPEC_Z2_Z4, add_elements(SPEC_Z2_Z4, a, b), c)
        rhs = add_elements(SPEC_Z2_Z4, a, add_elements(SPEC_Z2_Z4, b, c))
        assert lhs == rhs

    @given(elements_z2_z4)
    def test_zero_and_negation(self, a):
        z = ((0,), (0,))
        neg = ((-a[0][0] % 2,), (-a[1][0] % 4,))
        assert add_elements(SPEC_Z2_Z4, a, z) == a
        assert add_elements(SPEC_Z2_Z4, a, neg) == z


class TestEnumeration:
    @pytest.mark.parametrize("spec", FIXTURE_SPECS_SMALL,
                             ids=lambda s: s.describe())
    def test_count_and_uniqueness(self, spec):
        elems = list(enumerate_elements(spec))
        assert len(elems) == group_order(spec)
        assert len(set(elems)) == len(elems)

    def test_budget_enforced(self):
        spec = validate_spec(2, [(5, 3)])
        with pytest.raises(BudgetExceeded):
            list(enumerate_elements(spec, budget=100))


def _count_invertible(p: int, r: int) -> int:
    count = 0
    for flat in itertools.product(range(p), repeat=r * r):
        m = tuple(flat[i * r:(i + 1) * r] for i in range(r))
        if mx.is_invertible_mod_p(m, p):
            count += 1
    return count


class TestOrderFormulas:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (5, 1), (5, 2), (7, 1)])
    def test_gl_order_against_enumeration(self, p, r):
        assert gl_order(p, r) == _count_invertible(p, r)

    def test_gl_order_known_values(self):
        # both rechecked above by counting matrices
        assert gl_order(3, 2) == 48
        assert gl_order(2, 3) == 168

    @pytest.mark.parametrize("spec", FIXTURE_SPECS_SMALL,
                             ids=lambda s: s.describe())
    def test_aut_order_factorization(self, spec):
        assert aut_order(spec) == delta_order(spec) * pi_order(spec)

    def test_delta_order_example(self):
        # Z/2 + Z/4: cells are 1x1, the (2,1) cell forced even mod 4;
        # free digits: 1 (cell 1,2) + 1 (cell 2,1) + 1 (diagonal 2,2) = 3
        assert delta_order(SPEC_Z2_Z4) == 8
        assert pi_order(SPEC_Z2_Z4) == 1
        assert aut_order(SPEC_Z2_Z4) == 8


class TestDerivedSpecs:
    def test_pk_spec_drops_and_lowers(self):
        spec = validate_spec(3, [(1, 2), (2, 1), (4, 3)])
        assert derive_pk_spec(spec, 1) == PGroupSpec(3, ((1, 1), (3, 3)))
        assert derive_pk_spec(spec, 2) == PGroupSpec(3, ((2, 3),))

    def test_pk_spec_trivial(self):
        with pytest.raises(TrivialResult):
            derive_pk_spec(validate_spec(2, [(2, 1)]), 2)

    def test_tail_spec(self):
        spec = validate_spec(2, [(1, 1), (2, 2)])
        assert derive_tail_spec(spec) == PGroupSpec(2, ((2, 2),))
        with pytest.raises(SingleBlock):
            derive_tail_spec(validate_spec(2, [(2, 2)]))
