"""Classifier and section machinery."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.endo import (
    BlockEndo,
    QElement,
    block_endo,
    block_graphs,
    cayley_graph,
    compose,
    extend_along_rows,
    identity_q,
    layout,
    q_mul,
    sigma,
)
from autsplit.errors import NotSplitBlock, VerificationFailed
from autsplit.groups import gl_order, pi_order, validate_spec
from autsplit.oracle import (
    find_generators_of_Q,
    gl_generators,
    random_delta_element,
)
from autsplit.splitting import (
    SectionCertificate,
    block_section,
    block_tables,
    build_verified_section,
    classify,
    classify_block,
    rank_bound,
    teichmuller_section,
    verify_section,
)


def block_graph(cert, j):
    """The Cayley graph of the certificate's generators of block j."""
    _, graphs = block_graphs(cert.spec, [g.mats for g in cert.generators])
    return graphs[j]


class TestClassifyBlock:
    def test_elementary_always_splits(self):
        for p in (2, 3, 5, 7):
            for r in (1, 4, 9):
                assert classify_block(p, 1, r).outcome == "Splits"

    @pytest.mark.parametrize("p,bound", [(2, 3), (3, 2), (5, 1), (7, 1),
                                         (11, 1)])
    def test_rank_bound(self, p, bound):
        assert rank_bound(p) == bound
        for n in (2, 3):
            assert classify_block(p, n, bound).outcome == "Splits"
            assert classify_block(p, n, bound + 1).outcome == "DoesNotSplit"


class TestClassify:
    def test_all_split(self):
        v = classify(validate_spec(2, [(1, 1), (2, 3)]))
        assert v.outcome == "Splits"
        assert v.rule == "all-blocks-split"

    def test_large_prime_failing_block(self):
        v = classify(validate_spec(5, [(2, 2)]))
        assert v.outcome == "DoesNotSplit"
        assert v.rule == "failing-block"

    def test_small_prime_wide_gaps(self):
        v = classify(validate_spec(2, [(2, 4)]))
        assert v.outcome == "DoesNotSplit"
        assert v.rule == "failing-block-wide-gaps"
        v = classify(validate_spec(2, [(2, 4), (5, 1)]))
        assert v.outcome == "DoesNotSplit"

    def test_small_prime_tight_gap_is_unknown(self):
        v = classify(validate_spec(2, [(2, 4), (3, 1)]))
        assert v.outcome == "Unknown"
        assert v.rule == "outside-gap-hypothesis"
        assert classify(validate_spec(3, [(1, 1), (2, 3)])).outcome == "Unknown"

    def test_verdict_json_has_per_block(self):
        v = classify(validate_spec(3, [(2, 2), (4, 3)]))
        obj = v.to_json()
        assert [b["outcome"] for b in obj["per_block"]] == ["Splits",
                                                            "DoesNotSplit"]

    @settings(max_examples=300)
    @given(st.builds(
        lambda p, exps, ranks: validate_spec(
            p, list(zip(sorted(exps), ranks))),
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(1, 5), min_size=3, max_size=3),
    ))
    def test_first_block_phrasing_equivalent(self, spec):
        every_block_splits = all(
            classify_block(spec.p, n, r).outcome == "Splits"
            for n, r in spec.blocks)
        assert every_block_splits == (classify(spec).outcome == "Splits")


class TestTeichmuller:
    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2), (2, 3)])
    def test_multiplicative_lift(self, p, n):
        omega = teichmuller_section(p, n)
        q = p ** n
        units = [a for a in range(1, p) ]
        for a in units:
            assert omega(a) % p == a % p
            assert omega(a) == pow(a, p ** (n - 1), q)
            for b in units:
                assert omega(a) * omega(b) % q == omega(a * b)

    def test_known_values(self):
        # each equals a^(p^(n-1)) mod p^n, recomputed here by pow
        assert teichmuller_section(5, 2)(2) == 7
        assert teichmuller_section(3, 2)(2) == 8
        assert teichmuller_section(5, 3)(2) == 57

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            teichmuller_section(5, 2)(10)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_newton_lift_is_the_power(self, p):
        # every unit mod p^min(n, 3): all of them for n <= 3, and for larger
        # n representatives of every class mod p^3
        for n in range(1, 12):
            omega = teichmuller_section(p, n)
            q = p ** n
            for a in range(1, p ** min(n, 3)):
                if a % p:
                    assert omega(a) == pow(a, p ** (n - 1), q)


class TestBlockSection:
    def test_trivial_kind(self):
        assert block_section(3, 1, 4) == gl_generators(3, 4)

    def test_teichmuller_kind(self):
        assert gl_generators(5, 1) == (((2,),),)
        assert block_section(5, 2, 1) == (((7,),),)
        assert block_section(2, 5, 1) == ()  # GL_1(F_2) is trivial

    def test_table_kind_from_search(self):
        spec = validate_spec(3, [(2, 2)])
        gens = find_generators_of_Q(spec)
        images = block_section(3, 2, 2)
        assert [tuple(tuple(x % 3 for x in row) for row in h)
                for h in images] == [g.mats[0] for g in gens]
        cert = SectionCertificate(
            spec=spec, generators=gens,
            images=tuple(BlockEndo(spec=spec, rows=h) for h in images),
            verification={})
        assert verify_section(cert).ok

    def test_refuses_non_split_block(self):
        with pytest.raises(NotSplitBlock):
            block_section(5, 2, 2)


class TestCertificates:
    def test_build_and_verify_rank_one(self):
        spec = validate_spec(5, [(2, 1)])
        cert, report = build_verified_section(spec, mode="full-table")
        assert report.ok
        assert report.pairs_checked == pi_order(spec) ** 2
        assert cert.verification["mode"] == "full-table"

    @pytest.mark.parametrize("p,blocks", [
        (3, [(2, 2)]), (2, [(2, 2)]), (2, [(2, 3)]), (5, [(2, 1)]),
        (5, [(1, 1), (2, 1)]), (2, [(1, 2), (2, 2)]), (3, [(2, 2), (40, 1)]),
    ])
    def test_edge_proof_agrees_with_full_table(self, p, blocks):
        # the block-by-block proof must reject exactly the certificates
        # that the |Q|^2 reference rejects; multiplying one image by a Delta
        # element (nonzero off the diagonal too) keeps every reduction and
        # sometimes still gives a section
        spec = validate_spec(p, blocks)
        cert, report = build_verified_section(spec)
        assert report.mode == "cayley-edges"
        # each block's edges, plus one commutation per pair of generators
        # of different blocks
        per_block = [sum(g.mats[j] != identity_q(spec).mats[j]
                         for g in cert.generators)
                     for j in range(spec.num_blocks)]
        assert report.pairs_checked == sum(
            gl_order(p, r) * n for r, n in zip(spec.ranks, per_block)) + sum(
            a * b for a, b in itertools.combinations(per_block, 2))

        def passes(c, **kw):
            try:
                return verify_section(c, **kw).ok
            except VerificationFailed:
                return False

        rng = random.Random(0)
        certs = [cert]
        for i in range(len(cert.images)):
            for _ in range(3):
                images = list(cert.images)
                images[i] = compose(images[i], random_delta_element(spec, rng))
                certs.append(replace(cert, images=tuple(images)))
        verdicts = [(passes(c), passes(c, mode="full-table",
                                       full_table_limit=50_000))
                    for c in certs]
        assert all(edges == full for edges, full in verdicts)
        assert verdicts[0] == (True, True)
        assert not all(edges for edges, _ in verdicts)

    def test_json_round_trip(self):
        spec = validate_spec(3, [(2, 1)])
        cert, _ = build_verified_section(spec)
        back = SectionCertificate.from_json(cert.to_json())
        assert back == cert
        assert verify_section(back).ok

    def test_bad_images_caught(self):
        # the entrywise integer lift of a generator reduces correctly but is
        # not multiplicative, so extending it by words must hit a conflict
        spec = validate_spec(5, [(2, 1)])
        cert, _ = build_verified_section(spec)
        bad_images = tuple(
            block_endo(spec, [[tuple(tuple(int(x) for x in row)
                                     for row in g.mats[0])]])
            for g in cert.generators)
        bad = SectionCertificate(spec=spec, generators=cert.generators,
                                 images=bad_images, verification={})
        with pytest.raises(VerificationFailed):
            verify_section(bad)

    def test_wrong_reduction_caught(self):
        spec = validate_spec(5, [(1, 1), (2, 1)])
        cert, _ = build_verified_section(spec)
        assert len(cert.generators) == 2
        swapped = SectionCertificate(
            spec=spec, generators=tuple(reversed(cert.generators)),
            images=cert.images, verification={})
        with pytest.raises(VerificationFailed):
            verify_section(swapped)
        # past the generator check, the images still extend to a map on Q
        # (both blocks are cyclic), which the reduction check of the first
        # block's table fails
        with pytest.raises(VerificationFailed,
                           match="table image has wrong reduction") as got:
            block_tables(swapped)
        assert got.value.counterexample == QElement(
            p=5, mats=(cert.generators[0].mats[0], ((1,),)))

    def test_singular_generator_caught(self):
        # (Z/9): the zero map "lifts" the singular 0 mod 3, and {1, 0} has
        # as many elements as GL_1(F_3), so only invertibility rules it out
        cert = SectionCertificate.from_json({
            "spec": {"p": 3, "blocks": [{"n": 2, "r": 1}]},
            "generators": [[[[0]]]], "images": [{"cells": [[[[0]]]]}]})
        with pytest.raises(VerificationFailed, match="not invertible"):
            verify_section(cert)

    def test_generator_moving_two_blocks_rejected(self):
        # (Z/3 + Z/9): Q = GL_1(F_3)^2.  The generators g1*g2, g2 with the
        # images T(g1)*T(g2), T(g2) span Q and extend to the section, but
        # g1*g2 moves both blocks, so the block-by-block proof does not
        # apply
        spec = validate_spec(3, [(1, 1), (2, 1)])
        cert, _ = build_verified_section(spec)
        (g1, g2), (t1, t2) = cert.generators, cert.images
        mixed = SectionCertificate(
            spec=spec, generators=(q_mul(g1, g2), g2),
            images=(compose(t1, t2), t2), verification={})
        # a BFS over q_mul, as the proof walked before, accepts them
        elements, targets = cayley_graph(mixed.generators, q_mul,
                                         identity_q(spec), cap=4)
        assert len(elements) == pi_order(spec) == 4
        assert extend_along_rows(targets, 4, [t.rows for t in mixed.images],
                                 layout(spec)) is not None
        with pytest.raises(VerificationFailed, match="moves blocks 0 and 1"):
            verify_section(mixed)

    @pytest.mark.parametrize("obj", [
        None, [], "cert", {"generators": [], "images": []},
        {"spec": {"p": 2, "blocks": [{"n": 1, "r": 1}]}, "images": []},
        {"spec": {"p": 2, "blocks": [{"n": 1, "r": 1}]}, "generators": 1,
         "images": []},
        {"spec": {"p": 2, "blocks": [{"n": 1, "r": 1}]}, "generators": [],
         "images": [], "verification": "ok"},
    ])
    def test_malformed_certificate_json(self, obj):
        with pytest.raises(VerificationFailed):
            SectionCertificate.from_json(obj)

    def test_section_table_respects_sigma(self):
        spec = validate_spec(2, [(1, 2), (2, 2)])
        cert, report = build_verified_section(spec)
        tables, pairs = block_tables(cert)
        assert pairs == report.pairs_checked
        one = identity_q(spec).mats
        for j, (r, table) in enumerate(zip(spec.ranks, tables)):
            assert len(table) == gl_order(spec.p, r)
            graph = block_graph(cert, j)
            for i, rows in enumerate(table.tolist()):
                e = BlockEndo(spec=spec, rows=tuple(map(tuple, rows)))
                want = one[:j] + (graph.element(i),) + one[j + 1:]
                assert sigma(e) == QElement(p=spec.p, mats=want)

    def test_large_moduli_take_the_object_path(self):
        # 3^40 overflows int64, so the walk runs on Python ints; each block's
        # table must be the plain walk's over Q, element for element
        spec = validate_spec(3, [(2, 2), (40, 1)])
        assert layout(spec).dtype is object
        cert, report = build_verified_section(spec)
        assert report.ok
        assert [t.dtype for t in report.tables] == [object, object]
        elements, targets = cayley_graph(cert.generators, q_mul,
                                         identity_q(spec), cap=pi_order(spec))
        plain = extend_along_rows(targets, len(elements),
                                  [e.rows for e in cert.images], layout(spec))
        where = {q.mats: i for i, q in enumerate(elements)}
        one = identity_q(spec).mats
        for j, table in enumerate(report.tables):
            graph = block_graph(cert, j)
            assert [tuple(map(tuple, t)) for t in table.tolist()] == [
                plain[where[one[:j] + (graph.element(i),) + one[j + 1:]]]
                for i in range(graph.size)]
        assert max(x for t in plain for row in t for x in row) > 2 ** 63

    def test_build_refuses_non_split(self):
        with pytest.raises(NotSplitBlock):
            build_verified_section(validate_spec(5, [(2, 2)]))
        with pytest.raises(NotSplitBlock):
            build_verified_section(validate_spec(3, [(1, 1), (2, 3)]))
