"""The brute-force layer itself, checked against pure-python recomputation."""

import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
import types

import numpy as np
import pytest

from autsplit import endo, oracle
from autsplit import matrices as mx
from autsplit.endo import (
    BlockEndo,
    QElement,
    add_endos,
    block_graphs,
    bmul,
    bpow,
    cayley_graph,
    check_hom_constraints,
    compose,
    element_order,
    extend_along,
    extend_along_rows,
    extend_by_blocks,
    gl_bfs,
    gl_span,
    identity_endo,
    identity_q,
    in_delta,
    is_automorphism,
    is_identity,
    layout,
    mul_rows,
    pow_endo,
    pow_rows,
    q_order,
    sigma,
)
from autsplit.errors import (
    BudgetExceeded,
    NotAUnit,
    Overflow,
    RankTooSmall,
    ShapeMismatch,
)
from autsplit.groups import (
    DEFAULT_DELTA_BUDGET,
    DEFAULT_ELEMENT_BUDGET,
    aut_order,
    delta_order,
    delta_order_exponent,
    enumerate_elements,
    gl_order,
    pi_order,
    validate_spec,
)
from autsplit.oracle import (
    _coset_codes,
    _delta_array,
    _delta_inverses,
    _diagonal_int_lift,
    _flat,
    _lift_candidates,
    _transvection_perturbation,
    _unflat,
    bijective_equivalence_report,
    binomial_obstruction_check,
    brute_force_is_bijective,
    complement_lift_search,
    count_bijective_endos,
    endo_count,
    enumerate_delta,
    enumerate_endos,
    find_generators_of_Q,
    gl_generators,
    order_p_coset_obstruction,
    random_delta_element,
    random_endo,
    random_unit,
)
from autsplit.endo import apply, q_mul
from autsplit.errors import PreconditionViolation

SPEC_Z2_Z4 = validate_spec(2, [(1, 1), (2, 1)])


class TestBruteForce:
    def test_against_pure_python_image_count(self):
        rng = random.Random(0)
        for spec in (SPEC_Z2_Z4, validate_spec(3, [(2, 1)]),
                     validate_spec(2, [(2, 2)])):
            elems = list(enumerate_elements(spec))
            for _ in range(100):
                e = random_endo(spec, rng)
                bijective = len({apply(e, v) for v in elems}) == len(elems)
                assert brute_force_is_bijective(e) == bijective

    def test_budget(self):
        spec = validate_spec(2, [(6, 4)])
        rng = random.Random(0)
        with pytest.raises(BudgetExceeded):
            brute_force_is_bijective(random_endo(spec, rng), budget=1000)


class TestEnumeration:
    @pytest.mark.parametrize("spec", [
        SPEC_Z2_Z4,
        validate_spec(2, [(2, 2)]),
        validate_spec(3, [(1, 1), (2, 1)]),
        validate_spec(5, [(2, 1)]),
    ], ids=lambda s: s.describe())
    def test_delta_enumeration_matches_formula(self, spec):
        deltas = list(enumerate_delta(spec))
        assert len(deltas) == delta_order(spec)
        assert len(set(deltas)) == len(deltas)
        for d in deltas:
            assert in_delta(d)

    def test_endo_enumeration_complete(self):
        spec = SPEC_Z2_Z4
        endos = list(enumerate_endos(spec))
        assert len(endos) == endo_count(spec)
        assert len(set(endos)) == len(endos)
        for e in endos:
            assert check_hom_constraints(e)
        # cross-count: cells (1,1),(1,2) have 2 choices each, (2,1) has 2
        # even residues mod 4, (2,2) has 4
        assert endo_count(spec) == 2 * 2 * 2 * 4

    def test_bijective_count_equals_aut_order(self):
        assert count_bijective_endos(SPEC_Z2_Z4) == 8
        assert aut_order(SPEC_Z2_Z4) == 8
        spec = validate_spec(3, [(2, 1)])
        assert count_bijective_endos(spec) == aut_order(spec) == 6


class TestRandomSampling:
    def test_random_endo_validity_and_determinism(self):
        for spec in (SPEC_Z2_Z4, validate_spec(5, [(2, 2)])):
            a = [random_endo(spec, random.Random(7)) for _ in range(10)]
            b = [random_endo(spec, random.Random(7)) for _ in range(10)]
            assert a == b
            for e in a:
                assert check_hom_constraints(e)

    def test_random_unit_and_delta(self):
        rng = random.Random(1)
        for spec in (SPEC_Z2_Z4, validate_spec(3, [(1, 2), (2, 1)])):
            for _ in range(20):
                assert is_automorphism(random_unit(spec, rng))
                assert in_delta(random_delta_element(spec, rng))


class TestAgreementReport:
    def test_exhaustive_small_spec(self):
        report = bijective_equivalence_report(SPEC_Z2_Z4)
        assert report.exhaustive
        assert report.checked == endo_count(SPEC_Z2_Z4)
        assert report.disagreements == 0

    def test_sampled_larger_spec(self):
        spec = validate_spec(2, [(2, 2), (3, 1)])
        report = bijective_equivalence_report(spec, samples=300,
                                              endo_budget=2 ** 10)
        assert not report.exhaustive
        assert report.disagreements == 0


class TestClosure:
    # transvections have determinant 1, so the diagonal matrix with the
    # primitive root 2 is needed to reach all of GL_2(F_3)
    GENS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))]

    @staticmethod
    def graph(gens, cap):
        return cayley_graph(gens, lambda a, b: mx.mat_mul(a, b, 3),
                            mx.identity(2), cap=cap)

    def test_gl2_f3_closure(self):
        elems, targets = self.graph(self.GENS, cap=100)
        assert len(elems) == gl_order(3, 2) == 48
        assert elems[0] == mx.identity(2)
        k = len(self.GENS)
        assert len(targets) == len(elems) * k
        for i, x in enumerate(elems):
            for j, g in enumerate(self.GENS):
                assert elems[targets[i * k + j]] == mx.mat_mul(x, g, 3)

    def test_sl_subgroup_without_diagonal(self):
        elems, _ = self.graph(self.GENS[:2], cap=100)
        assert len(elems) == 24  # index 2: the determinant-1 subgroup

    def test_overflow(self):
        with pytest.raises(Overflow):
            self.graph(self.GENS, cap=10)


def _gl_shapes():
    """Every (p, r) with r >= 2 and |GL_r(F_p)| within the element budget."""
    shapes = []
    for p in (q for q in itertools.count(2)
              if all(q % d for d in range(2, q))):
        if gl_order(p, 2) > DEFAULT_ELEMENT_BUDGET:
            return shapes
        shapes += [(p, r) for r in itertools.takewhile(
            lambda r: gl_order(p, r) <= DEFAULT_ELEMENT_BUDGET,
            itertools.count(2))]


class TestGenerators:
    @pytest.mark.parametrize("spec", [
        validate_spec(3, [(2, 2)]),
        validate_spec(2, [(2, 3)]),
        validate_spec(5, [(1, 1), (2, 1)]),
    ], ids=lambda s: s.describe())
    def test_generate_whole_quotient(self, spec):
        gens = find_generators_of_Q(spec)
        elems, _ = cayley_graph(gens, q_mul, identity_q(spec),
                                cap=pi_order(spec))
        assert len(elems) == pi_order(spec)

    def test_deterministic(self):
        # against the uncached function, so the cache cannot pass it alone
        spec = validate_spec(3, [(2, 2)])
        assert find_generators_of_Q(spec) == find_generators_of_Q.__wrapped__(
            spec)

    def test_shapes_within_the_bound(self):
        assert sorted(_gl_shapes()) == sorted(
            [(p, 2) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
            + [(2, 3), (2, 4), (3, 3)])

    @pytest.mark.parametrize("p,r", _gl_shapes())
    def test_fixed_pair_generates(self, p, r):
        # the uncached walk: GL_2(F_31) alone has 923,521 elements
        pair = gl_generators(p, r)
        assert len(pair) == 2
        assert gl_span.__wrapped__(p, r, pair)[1] is not None
        # the lift search prunes the first generator's coset to a few
        # kernel-conjugacy classes when its order is prime to p
        assert q_order(QElement(p=p, mats=pair[:1])) % p != 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
    def test_rank_one_and_trivial(self, p):
        gens = gl_generators(p, 1)
        if p == 2:
            assert gens == ()
        else:
            (((g,),),) = gens
            assert q_order(QElement(p=p, mats=(((g,),),))) == p - 1

    # specs that share blocks of one rank, in other positions
    SHARED_SPECS = [(2, [(2, 2)]), (2, [(3, 2)]), (2, [(1, 2), (2, 2)]),
                    (2, [(1, 2), (3, 1)]), (2, [(2, 2), (4, 1)]),
                    (2, [(1, 1), (2, 2)]), (3, [(1, 2), (2, 1), (3, 2)])]

    def test_every_spec_gives_a_block_its_fixed_generators(self):
        for p, blocks in self.SHARED_SPECS:
            spec = validate_spec(p, blocks)
            one = identity_q(spec).mats
            want = [QElement(p=p, mats=one[:j] + (g,) + one[j + 1:])
                    for j, r in enumerate(spec.ranks)
                    for g in gl_generators(p, r)]
            assert list(find_generators_of_Q(spec)) == want

    @staticmethod
    def plain_omega(p):
        # the smallest unit of order p - 1, by listing its powers
        return next(g for g in range(1, p)
                    if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)

    @classmethod
    def plain_pair(cls, p, r):
        # Taylor's pair written out entry by entry, apart from the code
        if p == 2:
            a = [[int(i == j or (i, j) == (0, 1)) for j in range(r)]
                 for i in range(r)]
        else:
            a = [[cls.plain_omega(p) if i == j == 0 else int(i == j)
                  for j in range(r)] for i in range(r)]
        c = [[p - 1 if (i, j) == (0, 0) or i == j + 1
              else int((i, j) == (0, r - 1)) for j in range(r)]
             for i in range(r)]
        a, c = tuple(map(tuple, a)), tuple(map(tuple, c))
        return (c, a) if p == 2 else (a, c)

    @classmethod
    def plain_block_generators(cls, p, r):
        if p == 2 and r == 1:
            return ()
        return (((cls.plain_omega(p),),),) if r == 1 else cls.plain_pair(p, r)

    @classmethod
    def reference(cls, spec):
        # one pass: each block's plain generators, no memo
        idents = [mx.identity(r) for r in spec.ranks]
        gens = []
        for i, r in enumerate(spec.ranks):
            for g in cls.plain_block_generators(spec.p, r):
                mats = list(idents)
                mats[i] = g
                gens.append(QElement(p=spec.p, mats=tuple(mats)))
        return tuple(gens)

    @staticmethod
    def clear_memos():
        find_generators_of_Q.cache_clear()
        gl_generators.cache_clear()
        gl_span.cache_clear()

    @pytest.mark.parametrize("start", [0, 5])
    def test_memo_is_order_independent(self, start):
        # the specs taken from the start-th on, wrapping round, both ways
        specs = [validate_spec(p, blocks) for p, blocks
                 in self.SHARED_SPECS[start:] + self.SHARED_SPECS[:start]]
        self.clear_memos()
        forward = [find_generators_of_Q(s) for s in specs]
        self.clear_memos()
        backward = [find_generators_of_Q(s) for s in reversed(specs)][::-1]
        self.clear_memos()
        expected = [self.reference(s) for s in specs]
        assert forward == backward == expected
        assert all(expected)

    @staticmethod
    def plain_draw(p, r, rng):
        # one invertible matrix, entries row by row, drawn again if singular
        while True:
            m = tuple(tuple(rng.randrange(p) for _ in range(r))
                      for _ in range(r))
            if mx.is_invertible_mod_p(m, p):
                return m

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4),
                                     (3, 3), (7, 2), (11, 2), (13, 2)])
    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_search_draws_as_plain_search(self, p, r, seed):
        # the pair is the plain one, and its walk reaches a seeded plain draw
        pair = gl_generators(p, r)
        assert pair == self.plain_pair(p, r)
        _, graph = gl_span(p, r, pair)
        drawn = np.array(self.plain_draw(p, r, random.Random(seed)))
        assert (graph.elements == drawn).all(axis=(1, 2)).sum() == 1

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_gl_2_2_walks_one_graph(self, seed, monkeypatch):
        # every spec with a rank-2 block over F_2, in any order, shares one
        # walk of GL_2(F_2): the walk of the fixed pair
        specs = [validate_spec(p, blocks) for p, blocks in self.SHARED_SPECS
                 if p == 2]
        random.Random(seed).shuffle(specs)
        walks = []
        real_bfs = endo.gl_bfs

        def counting_bfs(p, r, mats, cap):
            walks.append((p, r, mats))
            return real_bfs(p, r, mats, cap)
        monkeypatch.setattr(endo, "gl_bfs", counting_bfs)
        gl_span.cache_clear()
        for spec in specs:
            assert 2 in spec.ranks
            _, graphs = block_graphs(
                spec, [g.mats for g in find_generators_of_Q(spec)])
            assert all(g is not None for g in graphs)
        assert [mats for p, r, mats in walks if (p, r) == (2, 2)] \
            == [gl_generators(2, 2)]

    def test_generators_are_found_without_a_walk(self, monkeypatch):
        walks = []
        real_bfs = endo.gl_bfs

        def counting_bfs(p, r, mats, cap):
            walks.append(mats)
            return real_bfs(p, r, mats, cap)
        monkeypatch.setattr(endo, "gl_bfs", counting_bfs)
        gl_span.cache_clear()
        for p, blocks in self.SHARED_SPECS:
            find_generators_of_Q.__wrapped__(validate_spec(p, blocks))
        assert walks == []


class TestArrayBFS:
    """`gl_bfs` against the plain BFS, `cayley_graph` on `mul_rows`."""

    @staticmethod
    def reference(p, r, mats, cap):
        return cayley_graph(list(mats), lambda a, b: mul_rows(a, b, (p,) * r),
                            mx.identity(r), cap=cap)

    def check(self, p, r, mats, cap=10 ** 6):
        graph = gl_bfs(p, r, mats, cap=cap)
        elements, targets = self.reference(p, r, mats, cap)
        assert [tuple(map(tuple, m)) for m in graph.elements.tolist()] \
            == elements
        assert graph.targets.shape == (len(elements), len(mats))
        assert graph.targets.reshape(-1).tolist() == targets
        # each element's tree edge is the first edge into it, and leaves
        # the depth just before the element's own
        first = {}
        for e, j in enumerate(targets):
            first.setdefault(j, e)
        k = len(mats)
        start, stop, tree_edges = 0, 1, []
        for edges in graph.tree:
            assert (edges < (stop - start) * k).all()
            tree_edges += (start * k + edges).tolist()
            start, stop = stop, stop + len(edges)
        assert len(graph.tree[-1]) == 0
        assert tree_edges == [first[j] for j in range(1, len(elements))]
        return graph

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2),
                                     (11, 2)])
    def test_whole_group(self, p, r):
        mats = gl_generators(p, r)
        assert self.check(p, r, mats).size == gl_order(p, r)
        assert gl_span(p, r, mats)[1] is not None

    @pytest.mark.parametrize("p,r,mats,size", [
        (3, 2, (((1, 1), (0, 1)), ((1, 0), (1, 1))), 24),  # SL_2(F_3)
        (5, 2, (((1, 1), (0, 1)),), 5),
        (2, 3, (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 1, 0), (1, 0, 0), (0, 0, 1))), 6),
        (11, 2, (((2, 0), (0, 1)), ((1, 0), (0, 2))), 100),
    ])
    def test_proper_subgroup(self, p, r, mats, size):
        assert self.check(p, r, mats).size == size
        assert gl_span(p, r, mats) == (size, None)

    @pytest.mark.parametrize("p,r,mats", [
        (2, 1, ()), (3, 2, ()), (2, 2, (((1, 0), (0, 1)),)),
    ])
    def test_trivial_group(self, p, r, mats):
        graph = self.check(p, r, mats)
        assert graph.size == 1 and [len(t) for t in graph.tree] == [0]

    @pytest.mark.parametrize("cap", [1, 10, 47])
    def test_overflow_at_the_cap(self, cap):
        mats = gl_generators(3, 2)
        with pytest.raises(Overflow, match=f"cap {cap}"):
            self.reference(3, 2, mats, cap)
        with pytest.raises(Overflow, match=f"cap {cap}"):
            gl_bfs(3, 2, mats, cap=cap)
        assert gl_bfs(3, 2, mats, cap=48).size == 48


class TestQuotientGraph:
    """Q's generators sorted by the block they move (`block_graphs`), each
    block's graph taken, against a BFS over `q_mul`."""

    @pytest.mark.parametrize("p,blocks", [
        (2, [(1, 1), (2, 2)]),  # a trivial GL_1(F_2) block
        (2, [(2, 3)]),
        (3, [(1, 2), (3, 2)]),
        (5, [(1, 1), (2, 1), (3, 1)]),
        (2, [(1, 2), (2, 2)]),
    ])
    def test_matches_reference_bfs(self, p, blocks):
        spec = validate_spec(p, blocks)
        one = identity_q(spec)
        # an identity generator in the middle moves no block
        gens = list(find_generators_of_Q(spec))
        gens.insert(1, one)
        moves, graphs = block_graphs(spec, [g.mats for g in gens])
        assert len(moves) == len(graphs) == spec.num_blocks
        for k, g in enumerate(gens):
            moved = [j for j, (m, e) in enumerate(zip(g.mats, one.mats))
                     if m != e]
            assert moved == [j for j, ks in enumerate(moves) if k in ks]
        assert not any(1 in ks for ks in moves)
        for j, (r, ks, graph) in enumerate(zip(spec.ranks, moves, graphs)):
            assert ks == sorted(ks)
            mats = tuple(gens[k].mats[j] for k in ks)
            assert gl_span(p, r, mats) == (gl_order(p, r), graph)
        # Q is the product of the blocks: a BFS over `q_mul` finds the
        # tuples of block elements, each once
        ref, _ = cayley_graph(gens, q_mul, one, cap=pi_order(spec))
        product = set(itertools.product(*[
            [graph.element(i) for i in range(graph.size)]
            for graph in graphs]))
        assert len(ref) == len(product) == pi_order(spec)
        assert {q.mats for q in ref} == product

    def test_proper_subgroup_has_no_graph(self):
        # one transvection spans 2 of the 6 elements of GL_2(F_2)
        spec = validate_spec(2, [(1, 1), (2, 2)])
        t = QElement(p=2, mats=(((1,),), ((1, 1), (0, 1))))
        moves, graphs = block_graphs(spec, [t.mats])
        assert moves == [[], [0]]
        assert graphs[0].size == 1 and graphs[1] is None

    def test_generator_moving_two_blocks(self):
        spec = validate_spec(3, [(1, 1), (2, 1)])
        g = QElement(p=3, mats=(((2,),), ((2,),)))
        with pytest.raises(ShapeMismatch, match="moves blocks 0 and 1"):
            block_graphs(spec, [g.mats])


def _closure_accepts(hs, spec):
    """Reference for the walk: a BFS of <h> on bare rows.

    Rejects at a non-identity element that reduces to 1 mod p (a kernel
    element) or past |Q| elements; accepts when <h> has exactly |Q|.
    """
    lay = layout(spec)
    cap = pi_order(spec)
    seen = {lay.identity}
    frontier = [lay.identity]
    while frontier:
        new = []
        for x in frontier:
            for h in hs:
                y = mul_rows(x, h, lay.moduli)
                if y in seen:
                    continue
                if in_delta(BlockEndo(spec, y)) or len(seen) >= cap:
                    return False
                seen.add(y)
                new.append(y)
        frontier = new
    return len(seen) == cap


class TestWalkEquivalence:
    """The lift search's check accepts exactly what the subgroup closure does.

    An assignment gives generator g the image lift(g) * d, d in Delta.  The
    check is factored (`extend_by_blocks`); the plain walk over all of Q
    (`extend_along_rows`) must agree with it, table and all.
    """

    @staticmethod
    def walk_and_cosets(spec):
        gens = find_generators_of_Q(spec)
        one = identity_q(spec).mats
        elements, targets = cayley_graph(gens, q_mul, identity_q(spec),
                                         cap=pi_order(spec))
        moves, graphs = block_graphs(spec, [g.mats for g in gens])
        lay = layout(spec)
        where = {q.mats: i for i, q in enumerate(elements)}
        # per block, the plain walk's index of each block graph element
        orders = [[where[one[:j] + (graph.element(i),) + one[j + 1:]]
                   for i in range(graph.size)]
                  for j, graph in enumerate(graphs)]

        def walk_accepts(hs):
            plain = extend_along_rows(targets, len(elements), hs, lay)
            tables = extend_by_blocks(moves, graphs, hs, lay)
            assert (plain is None) == (tables is None)
            if plain is not None:
                for table, order in zip(tables, orders):
                    assert table.tolist() == [[list(row) for row in plain[i]]
                                              for i in order]
            return plain is not None

        def blocks_extend(hs):
            stack = np.array(hs, dtype=lay.dtype)
            return all(extend_along(graph, stack[ks], lay) is not None
                       for ks, graph in zip(moves, graphs))

        cosets = [[compose(_diagonal_int_lift(spec, g), d).rows
                   for d in enumerate_delta(spec)] for g in gens]
        return walk_accepts, blocks_extend, cosets

    @pytest.mark.parametrize("p,blocks,accepted", [
        (2, [(2, 2)], 8), (3, [(2, 2)], 27),
        (3, [(1, 1), (2, 1)], 9), (5, [(1, 1), (2, 1)], 25),
    ])
    def test_every_assignment(self, p, blocks, accepted):
        spec = validate_spec(p, blocks)
        walk_accepts, blocks_extend, cosets = self.walk_and_cosets(spec)
        verdicts = [(walk_accepts(hs), _closure_accepts(hs, spec),
                     blocks_extend(hs))
                    for hs in itertools.product(*cosets)]
        assert len(verdicts) == delta_order(spec) ** len(cosets)
        assert all(walk == closure for walk, closure, _ in verdicts)
        assert sum(walk for walk, _, _ in verdicts) == accepted
        # with two blocks, some assignments extend on each block and fail
        # only because their images do not commute
        commute_only = sum(extends and not walk
                           for walk, _, extends in verdicts)
        assert (commute_only > 0) == (spec.num_blocks > 1)

    def test_sample_with_the_found_assignment(self):
        spec = validate_spec(2, [(1, 1), (2, 2)])
        walk_accepts, _, cosets = self.walk_and_cosets(spec)
        found = complement_lift_search(spec)
        assert found.outcome == "Found"
        sample = [tuple(e.rows for e in found.images)]
        rng = random.Random(0)
        sample += [tuple(rng.choice(c) for c in cosets) for _ in range(3000)]
        assert all(walk_accepts(hs) == _closure_accepts(hs, spec)
                   for hs in sample)
        assert walk_accepts(sample[0])


def _counting_bmul(monkeypatch, module):
    """Wrap `module.bmul` to count the matrices it multiplies."""
    count = [0]
    real = module.bmul

    def counting(lay, a, b):
        out = real(lay, a, b)
        count[0] += out[..., 0, 0].size
        return out

    monkeypatch.setattr(module, "bmul", counting)
    return count


class TestWalkCost:
    """The fused walk: size*k products when it accepts, fewer when it
    rejects early, and every edge checked, down to the deepest level."""

    @staticmethod
    def found_walk(p, blocks):
        spec = validate_spec(p, blocks)
        found = complement_lift_search(spec)
        assert found.outcome == "Found"
        lay = layout(spec)
        (graph,) = block_graphs(spec, [g.mats for g in found.generators])[1]
        hs = np.array([e.rows for e in found.images], dtype=lay.dtype)
        return graph, hs, lay

    @pytest.mark.parametrize("p,blocks", [(2, [(2, 2)]), (3, [(2, 2)]),
                                          (2, [(2, 3)])])
    def test_broken_edge_out_of_the_deepest_level(self, p, blocks):
        graph, hs, lay = self.found_walk(p, blocks)
        assert extend_along(graph, hs, lay) is not None
        # the deepest level has no tree edges: each edge out of it is only
        # checked, so redirect one of them; the last element lies there
        assert len(graph.tree[-1]) == 0
        i = graph.size - 1
        targets = graph.targets.copy()
        targets[i, 0] = (targets[i, 0] + 1) % graph.size
        broken = dataclasses.replace(graph, targets=targets)
        assert extend_along(broken, hs, lay) is None
        rows = [tuple(map(tuple, h)) for h in hs.tolist()]
        assert extend_along_rows(targets.reshape(-1).tolist(), graph.size,
                                 rows, lay) is None

    @pytest.mark.parametrize("p,blocks", [(2, [(2, 2)]), (3, [(2, 2)]),
                                          (2, [(2, 3)]), (3, [(3, 2)])])
    def test_accepted_walk_takes_size_times_k_products(self, monkeypatch,
                                                        p, blocks):
        graph, hs, lay = self.found_walk(p, blocks)
        count = _counting_bmul(monkeypatch, endo)
        assert extend_along(graph, hs, lay) is not None
        assert count[0] == graph.size * len(hs)

    def test_rejected_walk_stops_early(self, monkeypatch):
        # the 11 assignments of (Z/11^2)^2 that pass the search's pair
        # pre-check are each dropped a few levels into GL_2(F_11)
        spec = validate_spec(11, [(2, 2)])
        gens = find_generators_of_Q(spec)
        lay = layout(spec)
        order = q_order(q_mul(gens[0], gens[1]))
        walked = [hs for hs in itertools.product(
                      *_lift_candidates(spec, gens, DEFAULT_DELTA_BUDGET))
                  if pow_rows(mul_rows(hs[0], hs[1], lay.moduli), order,
                              lay) == lay.identity]
        assert len(walked) == 11
        (graph,) = block_graphs(spec, [g.mats for g in gens])[1]
        assert graph.size == 13200
        count = _counting_bmul(monkeypatch, endo)
        for hs in walked:
            count[0] = 0
            stack = np.array(hs, dtype=lay.dtype)
            assert extend_along(graph, stack, lay) is None
            assert 0 < count[0] < graph.size * len(hs)


class TestLiftCandidates:
    """The kernel-conjugacy dedupe on coset codes, against one on tuples."""

    # a transvection first: its order is p, so its coset keeps several
    # conjugacy classes; and a layout of Python ints
    CASES = [(3, [(2, 2)], True), (2, [(2, 3)], True),
             (3, [(1, 1), (2, 2)], True), (2, [(2, 2)], False),
             (55109, [(2, 1)], False)]

    @staticmethod
    def generators(spec, transvection):
        gens = find_generators_of_Q(spec)
        if not transvection:
            return gens
        mats = list(identity_q(spec).mats)
        r = spec.ranks[-1]
        mats[-1] = tuple(tuple(int(i == j or (i, j) == (0, 1))
                               for j in range(r)) for i in range(r))
        return (QElement(p=spec.p, mats=tuple(mats)),) + gens

    @staticmethod
    def lifts_of_order(spec, g, deltas):
        lay = layout(spec)
        hs = bmul(lay, _flat(_diagonal_int_lift(spec, g)), deltas)
        return hs[is_identity(lay, bpow(lay, hs, q_order(g)))]

    @pytest.mark.parametrize("p,blocks", [(p, b) for p, b, _ in CASES])
    def test_codes_number_each_coset(self, p, blocks):
        spec = validate_spec(p, blocks)
        deltas = _delta_array(spec)
        assert _coset_codes(spec, deltas).tolist() == list(range(len(deltas)))
        for g in find_generators_of_Q(spec):
            lay = layout(spec)
            coset = bmul(lay, _flat(_diagonal_int_lift(spec, g)), deltas)
            assert sorted(_coset_codes(spec, coset).tolist()) == list(
                range(len(deltas)))

    @pytest.mark.parametrize("p,blocks,transvection", CASES)
    def test_dedupe_matches_tuples(self, p, blocks, transvection):
        spec = validate_spec(p, blocks)
        lay = layout(spec)
        gens = self.generators(spec, transvection)
        deltas = _delta_array(spec)
        invs = _delta_inverses(spec, deltas)
        reps, seen = [], set()
        for h in self.lifts_of_order(spec, gens[0], deltas):
            if tuple(h.reshape(-1).tolist()) in seen:
                continue
            reps.append(tuple(map(tuple, h.tolist())))
            orbit = bmul(lay, bmul(lay, invs, h), deltas)
            seen.update(map(tuple, orbit.reshape(len(orbit), -1).tolist()))
        got = _lift_candidates(spec, gens, DEFAULT_DELTA_BUDGET)
        assert got[0] == reps
        assert (len(reps) > 1) == transvection
        assert got[1:] == [[tuple(map(tuple, h)) for h in
                            self.lifts_of_order(spec, g, deltas).tolist()]
                           for g in gens[1:]]


class TestDeltaInverses:
    """The Neumann inverse of kernel elements against Lagrange's
    d^(|Delta| - 1)."""

    @pytest.mark.parametrize("p,blocks", [
        (11, [(2, 2)]), (2, [(1, 1), (2, 2)]), (3, [(1, 1), (2, 2)]),
        (2, [(1, 2), (3, 1)]),
    ])
    def test_all_of_delta(self, p, blocks):
        spec = validate_spec(p, blocks)
        deltas = _delta_array(spec)
        assert np.array_equal(_delta_inverses(spec, deltas),
                              bpow(layout(spec), deltas, len(deltas) - 1))

    def test_object_dtype(self):
        spec = validate_spec(65537, [(2, 2)])
        lay = layout(spec)
        assert lay.dtype is object
        rng = random.Random(0)
        deltas = np.stack([_flat(random_delta_element(spec, rng))
                           for _ in range(8)])
        assert (_delta_inverses(spec, deltas).tolist()
                == bpow(lay, deltas, delta_order(spec) - 1).tolist())

    def test_outside_delta_stops_at_the_bound(self, monkeypatch):
        # 2 * 1 is a unit outside Delta: x = 1 is not nilpotent
        spec = validate_spec(3, [(2, 2)])
        lay = layout(spec)
        stack = np.concatenate([_delta_array(spec)[:5],
                                (2 * lay.ident % lay.mods)[None]])
        count = _counting_bmul(monkeypatch, oracle)
        with pytest.raises(NotAUnit, match="not in the kernel"):
            _delta_inverses(spec, stack)
        assert count[0] == len(stack) * (delta_order_exponent(spec) + 1)


class TestComplementSearch:
    def test_found_with_verified_images(self):
        spec = validate_spec(2, [(2, 2)])
        result = complement_lift_search(spec)
        assert result.outcome == "Found"
        for g, img in zip(result.generators, result.images):
            assert sigma(img) == g
            assert is_automorphism(img)

    def test_exhausted_not_found(self):
        spec = validate_spec(5, [(2, 2)])
        result = complement_lift_search(spec, pre_obstruction=False)
        assert result.outcome == "NotFound"
        assert result.evidence == "exhausted"
        assert result.assignments_tried > 0

    def test_time_budget_counts_only_tested_assignments(self, monkeypatch):
        # a clock that ticks once per reading: the search starts at 0 and
        # reads 3 > 2.5 before the third assignment, which goes untested
        ticks = itertools.count()
        monkeypatch.setattr(oracle, "time",
                            types.SimpleNamespace(monotonic=lambda: next(ticks)))
        spec = validate_spec(5, [(2, 2)])
        timed = complement_lift_search(spec, pre_obstruction=False,
                                       time_budget=2.5)
        assert (timed.outcome, timed.evidence) == ("BudgetExceeded",
                                                   "time budget")
        assert timed.assignments_tried == 2
        counted = complement_lift_search(spec, pre_obstruction=False,
                                         assignment_budget=2)
        assert (counted.evidence, counted.assignments_tried) == (
            "assignment budget", 2)

    def test_obstruction_prepass(self):
        spec = validate_spec(5, [(2, 2)])
        result = complement_lift_search(spec, pre_obstruction=True)
        assert result.outcome == "NotFound"
        assert result.evidence == "obstruction"

    def test_budget_exceeded_paths(self):
        big_quotient = validate_spec(2, [(2, 8)])
        result = complement_lift_search(big_quotient)
        assert (result.outcome, result.evidence) == ("BudgetExceeded",
                                                     "quotient too large")
        big_kernel = validate_spec(2, [(4, 3)])
        assert complement_lift_search(
            big_kernel, delta_budget=1000).outcome == "BudgetExceeded"

    def test_kernel_bytes_bounded_before_allocation(self, monkeypatch):
        # (2; 1:1 + 2:4), sweep row 19: |Delta| = 2^24 is within a budget of
        # 2^25, but its 5 x 5 array would take 3.4 GB
        def never(*args, **kwargs):
            raise AssertionError("the kernel array was allocated")

        spec = validate_spec(2, [(1, 1), (2, 4)])
        assert delta_order(spec) == 2 ** 24
        monkeypatch.setattr(np, "meshgrid", never)
        monkeypatch.setattr(np, "zeros", never)
        result = complement_lift_search(spec, delta_budget=2 ** 25)
        assert (result.outcome, result.evidence) == ("BudgetExceeded",
                                                     "kernel too large")

    def test_trivial_quotient(self):
        result = complement_lift_search(SPEC_Z2_Z4)
        assert result.outcome == "Found"
        assert result.generators == ()


class TestObstruction:
    def test_no_order_p_lift_for_p5(self):
        spec = validate_spec(5, [(2, 2)])
        report = order_p_coset_obstruction(spec)
        assert report.verdict == "NoOrderPLift"
        assert report.coset_size == delta_order(spec) == 625
        assert report.orders_histogram.get(5, 0) == 0
        assert sum(report.orders_histogram.values()) == 625

    def test_witness_checks_out_when_found(self):
        spec = validate_spec(2, [(2, 2)])
        report = order_p_coset_obstruction(spec)
        assert report.verdict == "OrderPLiftExists"
        w = report.witness
        assert element_order(w) == 2
        assert compose(w, w) == identity_endo(spec)

    def test_rank_one_rejected(self):
        with pytest.raises(RankTooSmall):
            order_p_coset_obstruction(validate_spec(5, [(2, 1)]))


class TestBinomialCheck:
    def test_zero_failures(self):
        for p in (5, 7):
            spec = validate_spec(p, [(2, 2)])
            report = binomial_obstruction_check(spec, trials=100, seed=0)
            assert report.failures == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            binomial_obstruction_check(validate_spec(3, [(2, 2)]))
        with pytest.raises(PreconditionViolation):
            binomial_obstruction_check(validate_spec(5, [(3, 2)]))
        with pytest.raises(PreconditionViolation):
            binomial_obstruction_check(validate_spec(5, [(2, 1)]))


# --- the batched Delta kernel against the per-element definitions ---

def _p_power_order(e):
    """Reference: the least p^k with e^(p^k) = 1, one composition at a time."""
    ident = identity_endo(e.spec)
    x, k = e, 0
    while x != ident:
        x = pow_endo(x, e.spec.p)
        k += 1
        assert k <= e.spec.exponents[-1] + 2
    return e.spec.p ** k


def _reference_obstruction(spec):
    """The coset scan written per element: compose + order over enumerate_delta."""
    base = add_endos(identity_endo(spec), _transvection_perturbation(spec))
    hist, witness, count = {}, None, 0
    for d in enumerate_delta(spec):
        x = compose(base, d)
        o = _p_power_order(x)
        hist[o] = hist.get(o, 0) + 1
        if o == spec.p and witness is None:
            witness = x
        count += 1
    out = {"spec": {"p": spec.p, "blocks": [{"n": n, "r": r}
                                            for n, r in spec.blocks]},
           "coset_size": count,
           "orders_histogram": {str(k): v for k, v in sorted(hist.items())},
           "verdict": "OrderPLiftExists" if witness else "NoOrderPLift"}
    if witness is not None:
        off = [sum(spec.ranks[:j]) for j in range(spec.num_blocks + 1)]
        blocks = list(zip(off, off[1:]))
        out["witness"] = {"cells": [[[list(row[k0:k1])
                                      for row in witness.rows[j0:j1]]
                                     for k0, k1 in blocks]
                                    for j0, j1 in blocks]}
    return out


class TestBatchedKernel:
    @pytest.mark.parametrize("p,blocks", [
        (2, [(1, 1)]), (5, [(2, 1)]), (2, [(2, 2)]), (3, [(2, 2)]),
        (2, [(3, 2)]), (2, [(1, 1), (2, 1)]), (3, [(1, 1), (2, 2)]),
        (2, [(1, 2), (2, 2)]), (2, [(1, 1), (2, 1), (3, 1)]),
        # the smallest (p; 2:1) whose layout holds Python ints (dtype object)
        (55109, [(2, 1)]),
    ])
    def test_delta_array_is_enumeration_order(self, p, blocks):
        spec = validate_spec(p, blocks)
        arr = _delta_array(spec)
        want = [_flat(d).tolist() for d in enumerate_delta(spec)]
        assert arr.tolist() == want
        assert [_unflat(spec, m) for m in want] == list(enumerate_delta(spec))

    def test_delta_array_is_built_in_place(self):
        # beside the 18 MiB array only length-|Delta| index vectors are held
        spec = validate_spec(2, [(3, 3)])
        tracemalloc.start()
        try:
            arr = _delta_array(spec, budget=2 ** 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes == 18 * 2 ** 20
        assert peak < 1.5 * arr.nbytes

    def test_delta_array_budget(self):
        spec = validate_spec(2, [(4, 3)])
        with pytest.raises(BudgetExceeded) as got:
            _delta_array(spec, budget=1000)
        with pytest.raises(BudgetExceeded) as want:
            next(enumerate_delta(spec, budget=1000))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p,blocks", [
        (5, [(2, 2)]), (7, [(2, 2)]), (11, [(2, 2)]), (3, [(2, 3)]),
        (2, [(1, 2), (2, 2)]), (2, [(1, 3), (3, 1)]),
    ])
    def test_obstruction_matches_per_element_scan(self, p, blocks):
        spec = validate_spec(p, blocks)
        assert (order_p_coset_obstruction(spec).to_json()
                == _reference_obstruction(spec))

    # (outcome, evidence, assignments_tried, md5 of the result JSON),
    # recorded from the per-element search; the counts and digests were
    # re-recorded for the fixed generators of `gl_generators`
    LIFT_PINS = {
        (2, ((2, 2),)): ("Found", "exhaustive lift search", 2, "5e579ddbf564"),
        (2, ((2, 3),)): ("Found", "exhaustive lift search", 4, "b93d2d2db20a"),
        (2, ((3, 2),)): ("Found", "exhaustive lift search", 2, "71ccddaad0c2"),
        (3, ((2, 2),)): ("Found", "exhaustive lift search", 4, "eb91244b6398"),
        (3, ((3, 2),)): ("Found", "exhaustive lift search", 8, "2a9eab517d8b"),
        (2, ((1, 1), (2, 2))): ("Found", "exhaustive lift search", 2,
                                "0d4e0110b842"),
        (3, ((1, 1), (2, 2))): ("Found", "exhaustive lift search", 4,
                                "1ebb8802a1c3"),
    }

    @pytest.mark.parametrize("pre", [True, False])
    @pytest.mark.parametrize("key", list(LIFT_PINS))
    def test_lift_search_pinned(self, key, pre):
        result = complement_lift_search(validate_spec(*key),
                                        pre_obstruction=pre)
        digest = hashlib.md5(json.dumps(result.to_json(), sort_keys=True)
                             .encode()).hexdigest()[:12]
        assert (result.outcome, result.evidence, result.assignments_tried,
                digest) == self.LIFT_PINS[key]

    def test_large_entries_take_the_object_path(self):
        spec = validate_spec(65537, [(2, 2)])  # entries up to 65537^2 > 2^32
        m = spec.moduli[0]
        assert layout(spec).dtype is object
        rng = random.Random(0)
        mats = [tuple(tuple(rng.randrange(2 ** 31, m) for _ in range(2))
                      for _ in range(2)) for _ in range(6)]
        stack = [_flat(_unflat(spec, [list(r) for r in a])) for a in mats]
        got = bmul(layout(spec), stack[0], np.stack(stack[1:]))
        assert got.tolist() == [[list(r) for r in mx.mat_mul(mats[0], b, m)]
                                for b in mats[1:]]
