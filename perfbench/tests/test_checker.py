"""The output checker, on outputs built from the recorded expectations.

    python3 -m pytest perfbench/tests/test_checker.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402


def _sweep_rows(items):
    return [dict(it["verdict"], line=i) for i, it in enumerate(items, 1)]


def _check_sweep(items, rows, exit_code=0, tb=None):
    stdout = "".join(json.dumps(r) + "\n" for r in rows)
    return wl.check_call("sweep50", items, exit_code, tb, stdout)


def test_recorded_outputs_pass_in_any_order():
    items = wl.seeded_order(wl.load_items("sweep50"), 7)
    out = _check_sweep(items, _sweep_rows(items))
    assert all(o["ok"] for o in out)
    assert sum(o["proof"] != wl.NO_PROOF for o in out) == 33


def test_changed_verdict_fails_only_that_item():
    items = wl.load_items("sweep50")
    rows = _sweep_rows(items)
    i = next(i for i, it in enumerate(items) if it["proof"] == "SectionVerified")
    rows[i]["outcome"] = "DoesNotSplit"
    out = _check_sweep(items, rows)
    assert [o["ok"] for o in out].count(False) == 1 and not out[i]["ok"]


def test_dropped_proof_fails():
    items = wl.load_items("sweep50")
    rows = _sweep_rows(items)
    i = next(i for i, it in enumerate(items) if it["proof"] == "NoOrderPLift")
    rows[i].update(oracle=None, agreement=None, note="classifier-only")
    assert not _check_sweep(items, rows)[i]["ok"]


def test_gained_proof_passes_and_counts():
    items = wl.load_items("sweep50")
    rows = _sweep_rows(items)
    i = next(i for i, it in enumerate(items)
             if it["proof"] == wl.NO_PROOF and it["verdict"]["outcome"] == "Splits")
    rows[i].update(oracle="SectionVerified", agreement=True)
    rows[i].pop("note")
    out = _check_sweep(items, rows)
    assert out[i]["ok"] and out[i]["proof"] == "SectionVerified"


def test_traceback_and_exit_code_fail_every_item_of_the_call():
    items = wl.load_items("sweep50")
    rows = _sweep_rows(items)
    assert not any(o["ok"] for o in _check_sweep(items, rows, exit_code=1))
    assert not any(o["ok"] for o in _check_sweep(items, rows, tb="Traceback\nKeyError: 'x'"))


def test_certificate_must_reduce_to_its_generators():
    payload = {
        "spec": {"p": 2, "blocks": [{"n": 1, "r": 1}, {"n": 2, "r": 2}]},
        "generators": [[[[1]], [[1, 0], [1, 1]]]],
        "images": [{"cells": [[[[1]], [[0, 0]]], [[[0], [0]], [[1, 0], [1, 3]]]]}],
        "verification": {"mode": "full-table", "ok": True, "pairs": 36},
    }
    assert wl.section_proof(payload) == "certificate"
    bad = copy.deepcopy(payload)
    bad["images"][0]["cells"][1][1] = [[1, 1], [1, 3]]
    assert wl.section_proof(bad) == wl.NO_PROOF
    sampled = copy.deepcopy(payload)
    sampled["verification"]["mode"] = "sampled"
    assert wl.section_proof(sampled) == wl.NO_PROOF


def test_malformed_output_fails_the_item():
    items = wl.load_items("oracle-proofs")[:1]
    out = wl.check_call("oracle-proofs", items, 0, None, "[1, 2]\n")
    assert not out[0]["ok"] and "malformed" in out[0]["reason"]
