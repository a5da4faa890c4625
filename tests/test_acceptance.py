"""Acceptance gate: seven criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every numeric claim below is recomputed here from scratch; the
suite fails rather than weakens if any count or verdict drifts.
"""

import json
import random
import time

import pytest
from click.testing import CliRunner

from autsplit import matrices as mx
from autsplit.cli import main as cli_main
from autsplit.endo import (
    apply,
    compose,
    corner_mu,
    identity_endo,
    is_automorphism,
    q_mul,
    restrict_to_pk,
    sigma,
    truncate_tail,
    zero_endo,
)
from autsplit.groups import (
    aut_order,
    delta_order,
    derive_pk_spec,
    enumerate_elements,
    group_order,
    pi_order,
    validate_spec,
)
from autsplit.oracle import (
    binomial_obstruction_check,
    brute_force_is_bijective,
    complement_lift_search,
    count_bijective_endos,
    enumerate_delta,
    order_p_coset_obstruction,
    random_delta_element,
    random_endo,
    random_unit,
)
from autsplit.splitting import (
    SectionCertificate,
    build_verified_section,
    classify,
    classify_block,
    verify_section,
)
from conftest import FIXTURE_SPECS_SMALL, SWEEP50_PATH


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sweep_runs():
    """The 50-spec batch sweep, run twice with the same seed."""
    runner = CliRunner()
    args = ["batch", str(SWEEP50_PATH), "--with-oracle",
            "--budget-elems", "4096", "--budget-assignments", "65536"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    return first, second


def test_criterion_1_unit_criterion_equivalence():
    start = time.monotonic()
    specs = FIXTURE_SPECS_SMALL
    assert len(specs) >= 20
    assert {s.p for s in specs} == {2, 3, 5}
    assert all(group_order(s) <= 4096 for s in specs)
    checked = disagreements = 0
    for spec in specs:
        rng = random.Random(0xC1)
        cases = [identity_endo(spec), zero_endo(spec)]
        cases += [random_delta_element(spec, rng) for _ in range(8)]
        cases += [random_unit(spec, rng) for _ in range(8)]
        cases += [random_endo(spec, rng) for _ in range(10_000)]
        for e in cases:
            checked += 1
            if is_automorphism(e) != brute_force_is_bijective(e):
                disagreements += 1
    elapsed = time.monotonic() - start
    _report(1, "unit criterion vs brute force", disagreements == 0,
            f"{len(specs)} specs, {checked} endomorphisms, "
            f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_2_counting_identities():
    start = time.monotonic()
    formula_checked = 0
    for spec in FIXTURE_SPECS_SMALL:
        if delta_order(spec) <= 2 ** 16:
            assert delta_order(spec) == sum(1 for _ in enumerate_delta(spec))
            formula_checked += 1
    aut_checked = 0
    for spec in FIXTURE_SPECS_SMALL:
        if group_order(spec) <= 256:
            assert aut_order(spec) == count_bijective_endos(spec)
            aut_checked += 1
    z2_z4 = validate_spec(2, [(1, 1), (2, 1)])
    assert count_bijective_endos(z2_z4) == 8
    elapsed = time.monotonic() - start
    _report(2, "counting identities", True,
            f"kernel formula on {formula_checked} specs, |Aut| brute-forced "
            f"on {aut_checked} specs, {elapsed:.1f}s")


def test_criterion_3_order_p_obstruction():
    start = time.monotonic()
    spec = validate_spec(5, [(2, 2)])
    report = order_p_coset_obstruction(spec)
    assert report.coset_size == 625
    assert report.orders_histogram.get(5, 0) == 0
    assert report.verdict == "NoOrderPLift"
    failures = 0
    trials = 0
    for p in (5, 7):
        b = binomial_obstruction_check(validate_spec(p, [(2, 2)]),
                                       trials=1000, seed=0)
        failures += b.failures
        trials += b.trials
    elapsed = time.monotonic() - start
    _report(3, "order-p coset obstruction", failures == 0,
            f"coset of 625 scanned with zero order-5 elements; binomial "
            f"congruence {trials} trials, {failures} failures, {elapsed:.1f}s")


def test_criterion_4_splitting_witnesses():
    start = time.monotonic()
    verified = []
    for p, n, r in [(3, 2, 2), (2, 2, 2), (2, 2, 3)]:
        spec = validate_spec(p, [(n, r)])
        result = complement_lift_search(spec)
        assert result.outcome == "Found", (p, n, r)
        cert = SectionCertificate(
            spec=spec, generators=result.generators, images=result.images,
            verification={})
        report = verify_section(cert, mode="full-table",
                                full_table_limit=50_000)
        assert report.ok
        verified.append((spec.describe(), report.pairs_checked))
    for blocks in [[(2, 1)], [(1, 1), (2, 1)]]:
        spec = validate_spec(5, blocks)
        cert, report = build_verified_section(spec, mode="full-table")
        assert report.ok
        assert report.pairs_checked == pi_order(spec) ** 2
        verified.append((spec.describe(), report.pairs_checked))
    elapsed = time.monotonic() - start
    pairs = sum(n for _, n in verified)
    _report(4, "splitting witnesses", True,
            f"{len(verified)} sections verified exhaustively "
            f"({pairs} pairs total), {elapsed:.1f}s")


def test_criterion_5_non_splitting_verified(sweep_runs):
    start = time.monotonic()
    spec = validate_spec(5, [(2, 2)])
    report = order_p_coset_obstruction(spec)
    assert report.verdict == "NoOrderPLift"
    search = complement_lift_search(spec, pre_obstruction=False)
    assert search.outcome == "NotFound"
    assert search.evidence == "exhausted"
    assert classify(spec).outcome == "DoesNotSplit"

    first, _ = sweep_runs
    rows = [json.loads(ln) for ln in first.output.splitlines()]
    r5 = [r for r in rows if r["spec"] == {"p": 5, "blocks": [{"n": 2, "r": 2}]}]
    assert r5 and r5[0]["oracle"] == "NoOrderPLift"
    assert r5[0]["agreement"] is True
    r24 = [r for r in rows if r["spec"] == {"p": 2, "blocks": [{"n": 2, "r": 4}]}]
    assert r24 and r24[0]["outcome"] == "DoesNotSplit"
    assert r24[0].get("note") == "classifier-only"
    elapsed = time.monotonic() - start
    _report(5, "non-splitting verified", True,
            f"obstruction proof plus exhaustive search "
            f"({search.assignments_tried} assignments) agree with the "
            f"classifier; imported-data case marked classifier-only, "
            f"{elapsed:.1f}s")


def _check_restrict_square(spec, k, e) -> int:
    """apply commutes with the inclusion of p^k G; returns elements checked."""
    sub = derive_pk_spec(spec, k)
    keep = [i for i, (n, _) in enumerate(spec.blocks) if n > k]
    f = spec.p ** k
    checked = 0
    for w in enumerate_elements(sub):
        up = tuple(
            tuple(f * x % m for x in w[keep.index(i)]) if i in keep
            else (0,) * spec.ranks[i]
            for i, m in enumerate(spec.moduli))
        down = apply(e, up)
        through = apply(restrict_to_pk(e, k), w)
        expect = tuple(
            tuple(f * x % spec.moduli[i] for x in v)
            for i, v in zip(keep, through))
        assert tuple(down[i] for i in keep) == expect
        for i in range(spec.num_blocks):
            if i not in keep:
                assert down[i] == (0,) * spec.ranks[i]
        checked += 1
    return checked


def test_criterion_6_induced_maps():
    start = time.monotonic()
    square_checks = 0
    for spec in FIXTURE_SPECS_SMALL:
        rng = random.Random(0xC6)
        for k in range(1, spec.exponents[-1]):
            for _ in range(3):
                square_checks += _check_restrict_square(
                    spec, k, random_unit(spec, rng))

    corner_pairs = 0
    for p, blocks in [(3, [(2, 1), (4, 1)]), (5, [(2, 2), (4, 1)])]:
        spec = validate_spec(p, blocks)
        rng = random.Random(0xC6)
        m = spec.moduli[0]
        for _ in range(1000):
            a = random_unit(spec, rng)
            b = random_unit(spec, rng)
            assert corner_mu(compose(a, b)) == mx.mat_mul(
                corner_mu(a), corner_mu(b), m)
            corner_pairs += 1

    spec = validate_spec(2, [(1, 1), (2, 1)])
    rng = random.Random(0xC6)
    counterexample = False
    sigma_pairs = 0
    for _ in range(10_000):
        a = random_unit(spec, rng)
        b = random_unit(spec, rng)
        ab = compose(a, b)
        if truncate_tail(ab) != compose(truncate_tail(a), truncate_tail(b)):
            counterexample = True
        assert sigma(truncate_tail(ab)) == q_mul(
            sigma(truncate_tail(a)), sigma(truncate_tail(b)))
        sigma_pairs += 1
    assert counterexample, "truncation unexpectedly multiplicative"
    elapsed = time.monotonic() - start
    _report(6, "induced maps", True,
            f"{square_checks} commuting-square elements, {corner_pairs} "
            f"corner-map pairs, truncation counterexample found and mod-p "
            f"multiplicativity held on {sigma_pairs} pairs, {elapsed:.1f}s")


def test_criterion_7_classifier_totality_and_sweep(sweep_runs):
    start = time.monotonic()
    total = unknowns = 0
    for p in (2, 3, 5, 7):
        import itertools
        for count in (1, 2, 3):
            for exps in itertools.combinations(range(1, 6), count):
                for ranks in itertools.product(range(1, 5), repeat=count):
                    spec = validate_spec(p, list(zip(exps, ranks)))
                    v = classify(spec)
                    total += 1
                    assert v.outcome in ("Splits", "DoesNotSplit", "Unknown")
                    failing = any(
                        classify_block(p, n, r).outcome == "DoesNotSplit"
                        for n, r in spec.blocks)
                    tight = any(n2 - n1 == 1 for (n1, _), (n2, _)
                                in zip(spec.blocks, spec.blocks[1:]))
                    if p >= 5 or not failing or not tight:
                        assert v.outcome != "Unknown"
                    else:
                        assert v.outcome == "Unknown"
                        unknowns += 1

    first, second = sweep_runs
    assert first.exit_code == 0, first.output
    assert first.output == second.output
    rows = [json.loads(ln) for ln in first.output.splitlines()]
    assert len(rows) == 50
    assert all("error" not in r for r in rows)
    disagreed = [r for r in rows if r["agreement"] is False]
    agreed = sum(1 for r in rows if r["agreement"] is True)
    outcomes = {r["outcome"] for r in rows}
    assert outcomes == {"Splits", "DoesNotSplit", "Unknown"}
    elapsed = time.monotonic() - start
    _report(7, "classifier totality and sweep", not disagreed,
            f"{total} specs classified ({unknowns} in the documented unknown "
            f"region); 50-spec sweep byte-identical across two runs, "
            f"{agreed} oracle agreements, {len(disagreed)} disagreements, "
            f"{elapsed:.1f}s")
