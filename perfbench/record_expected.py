"""Record the expected output of every workload item from the current commit.

    python3 perfbench/record_expected.py

Runs each CLI call once, in workload order, and writes
`perfbench/expected/<workload>.json`: per item its input, the verdict
fields, the exit code and the proof kind.  The checked-in files come from
the commit that defined the benchmark; re-record only when a workload
itself changes, never to make a changed program pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from run import WORK, git_commit  # noqa: E402

SWEEP_FIXTURE = ROOT / "tests" / "fixtures" / "sweep50.jsonl"

#: (Z/p^2)^2 proved by the coset obstruction and again by exhaustion, and
#: one two-block group that takes the multi-block search path.
ORACLE_CALLS = (
    [(f"p{p}-{how}", ["oracle", "complement-search", "-p", str(p),
                      "-b", "2:2"] + extra)
     for p in (5, 7, 11)
     for how, extra in (("obstruction", []),
                        ("exhaustion", ["--no-pre-obstruction"]))]
    + [("p2-multiblock", ["oracle", "complement-search", "-p", "2",
                          "-b", "1:1", "-b", "2:2"])]
)

#: Splits groups with searched blocks and |Q| <= 168, so that the default
#: full-table check (|Q|^2 pairs) stays within seconds.
SECTION_SPECS = (
    [(2, s) for s in ("2:2", "2:3", "3:2", "1:2+2:2", "2:2+4:1", "1:1+2:3",
                      "2:3+4:1")]
    + [(3, s) for s in ("2:2", "3:2", "2:2+4:1", "1:1+2:2")]
)


def _section_args(p: int, blocks: str) -> list[str]:
    out = ["-p", str(p)]
    for b in blocks.split("+"):
        out += ["-b", b]
    return out


def _invoke(runner, main, args):
    res = runner.invoke(main, args, auto_envvar_prefix="AUTSPLIT")
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return res


def record() -> None:
    from click.testing import CliRunner

    from autsplit.cli import main

    runner = CliRunner()
    commit = git_commit(ROOT)
    out = {}

    specs = [json.loads(ln) for ln in SWEEP_FIXTURE.read_text().splitlines()
             if ln.strip()]
    res = _invoke(runner, main, ["batch", str(SWEEP_FIXTURE)] + wl.SWEEP_ARGS)
    rows = [json.loads(ln) for ln in res.stdout.splitlines()]
    out["sweep50"] = [
        {"id": f"row{i:02d}", "spec": spec, "exit_code": res.exit_code,
         "verdict": wl.sweep_row_fields(row), "proof": wl.sweep_row_proof(row)}
        for i, (spec, row) in enumerate(zip(specs, rows), start=1)
    ]

    items = []
    for item_id, args in ORACLE_CALLS:
        res = _invoke(runner, main, args)
        payload = json.loads(res.stdout)
        items.append({"id": item_id, "args": args, "exit_code": res.exit_code,
                      "verdict": wl.search_fields(payload),
                      "proof": wl.search_proof(payload)})
    out["oracle-proofs"] = items

    items = []
    cache_dir = WORK / "record-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    try:
        for p, blocks in SECTION_SPECS:
            args = _section_args(p, blocks)
            res = _invoke(runner, main, ["section", "--cache-dir", str(cache_dir)]
                          + args)
            payload = json.loads(res.stdout)
            items.append({"id": f"p{p}-{blocks}", "args": args,
                          "exit_code": res.exit_code,
                          "verdict": wl.section_fields(payload),
                          "proof": wl.section_proof(payload)})
    finally:
        shutil.rmtree(cache_dir)
    out["section-cache"] = items

    for workload, items in out.items():
        path = wl.EXPECTED_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump({"workload": workload, "commit": commit, "items": items},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        proven = sum(1 for it in items if it["proof"] != wl.NO_PROOF)
        print(f"{workload}: {len(items)} items, {proven} proven -> {path}")


if __name__ == "__main__":
    record()
