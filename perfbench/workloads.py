"""Workload items and the output checker.

Stdlib only, and independent of the program: nothing here imports
`autsplit`, so the checks do not trust the code they check.

Every workload is a list of items read from `expected/<workload>.json`,
which `record_expected.py` wrote from the program's own outputs.  An item
carries its expected verdict fields, the expected exit code of the CLI call
that produces it and its proof kind.  An item fails when its verdict fields
differ, when the call raises (a traceback), or when the call exits with
another code than the expected one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("sweep50", "oracle-proofs", "section-cache")

#: The batch call the acceptance gate makes, minus the input file.
SWEEP_ARGS = ["--with-oracle", "--budget-elems", "4096",
              "--budget-assignments", "65536"]

#: Proof kinds that are not a proof: the verdict rests on the classifier only.
NO_PROOF = "classifier-only"

#: Verification modes that do not check every pair and so prove nothing.
INCOMPLETE_MODES = ("sampled", "unverified")


def load_items(workload: str) -> list[dict]:
    with open(EXPECTED_DIR / f"{workload}.json") as fh:
        return json.load(fh)["items"]


def seeded_order(items: list[dict], seed: int) -> list[dict]:
    """The items in the order the workload seed picks; the same each pass."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# --- verdict fields and proof kinds, shared by the recorder and the checker ---

def sweep_row_fields(row: dict) -> dict:
    return {k: row.get(k) for k in
            ("spec", "outcome", "rule", "oracle", "agreement", "note")}


def sweep_row_proof(row: dict) -> str:
    """The oracle verdict when it agrees with the classifier, else no proof."""
    if row.get("agreement") is True and row.get("oracle"):
        return row["oracle"]
    return NO_PROOF


def reduces_to_generators(payload: dict) -> bool:
    """Each image's diagonal cells reduce mod p to its generator's matrices."""
    p = payload["spec"]["p"]
    gens = payload.get("generators", [])
    images = payload.get("images", [])
    if len(gens) != len(images):
        return False
    for gen, img in zip(gens, images):
        cells = img["cells"]
        if len(cells) != len(gen):
            return False
        for j, mat in enumerate(gen):
            diag = cells[j][j]
            if [[x % p for x in row] for row in diag] != \
                    [[x % p for x in row] for row in mat]:
                return False
    return True


def search_fields(payload: dict) -> dict:
    return {k: payload.get(k) for k in ("spec", "verdict", "evidence")}


def search_proof(payload: dict) -> str:
    """How a complement search proved its verdict."""
    if payload.get("verdict") == "NotFound":
        return payload.get("evidence") or NO_PROOF
    if payload.get("verdict") == "Found" and reduces_to_generators(payload):
        return "lift-found"
    return NO_PROOF


def section_fields(payload: dict) -> dict:
    ver = payload.get("verification", {})
    return {"spec": payload.get("spec"), "ok": ver.get("ok")}


def section_proof(payload: dict) -> str:
    """A certificate is a proof when it was checked on every pair of the
    quotient and its images reduce to its generators."""
    ver = payload.get("verification", {})
    if (ver.get("ok") is True and ver.get("mode") not in INCOMPLETE_MODES
            and reduces_to_generators(payload)):
        return "certificate"
    return NO_PROOF


# --- the CLI calls of one pass ---

def sweep_jsonl(order: list[dict]) -> str:
    return "".join(json.dumps(it["spec"], sort_keys=True) + "\n"
                   for it in order)


def invocations(workload: str, order: list[dict], sweep_file: str,
                cache_dir: str | None) -> list[tuple[list[str], list[dict]]]:
    """(CLI arguments, items it answers) for each call of one pass."""
    if workload == "sweep50":
        return [(["batch", sweep_file] + SWEEP_ARGS, order)]
    if workload == "section-cache":
        return [(["section", "--cache-dir", cache_dir] + it["args"], [it])
                for it in order]
    return [(list(it["args"]), [it]) for it in order]


# --- the checker ---

def _outcome(item: dict, ok: bool, proof: str, reason: str) -> dict:
    return {"id": item["id"], "ok": ok, "proof": proof if ok else NO_PROOF,
            "reason": reason}


def _compare(item: dict, fields: dict, proof: str) -> dict:
    exp_fields = item["verdict"]
    exp_proof = item["proof"]
    if exp_proof == NO_PROOF and proof != NO_PROOF:
        # A row the seed left to the classifier may gain a proof; the
        # classifier's own verdict must still match.
        keep = ("spec", "outcome", "rule")
        same = all(fields.get(k) == exp_fields.get(k) for k in keep)
        return _outcome(item, same, proof,
                        "" if same else f"verdict {fields} != {exp_fields}")
    if fields != exp_fields:
        return _outcome(item, False, proof,
                        f"verdict {fields} != {exp_fields}")
    if proof != exp_proof:
        return _outcome(item, False, proof,
                        f"proof {proof!r} != {exp_proof!r}")
    return _outcome(item, True, proof, "")


def check_call(workload: str, items: list[dict], exit_code: int,
               traceback: str | None, stdout: str) -> list[dict]:
    """One outcome per item answered by a CLI call."""
    if traceback is not None:
        return [_outcome(it, False, NO_PROOF, "traceback: "
                         + traceback.strip().splitlines()[-1]) for it in items]
    bad_exit = [it for it in items if it["exit_code"] != exit_code]
    if bad_exit:
        return [_outcome(it, False, NO_PROOF,
                         f"exit code {exit_code} != {it['exit_code']}")
                for it in items]
    try:
        payloads = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]
    except json.JSONDecodeError as exc:
        return [_outcome(it, False, NO_PROOF, f"bad JSON output: {exc}")
                for it in items]
    if len(payloads) != len(items):
        return [_outcome(it, False, NO_PROOF,
                         f"{len(payloads)} output lines for {len(items)} items")
                for it in items]
    fields, proof = READERS[workload]
    out = []
    for it, payload in zip(items, payloads):
        try:
            out.append(_compare(it, fields(payload), proof(payload)))
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            out.append(_outcome(it, False, NO_PROOF,
                                f"malformed output: {exc!r}"))
    return out


#: (verdict fields, proof kind) readers of one output line, per workload.
READERS = {
    "sweep50": (sweep_row_fields, sweep_row_proof),
    "oracle-proofs": (search_fields, search_proof),
    "section-cache": (section_fields, section_proof),
}
