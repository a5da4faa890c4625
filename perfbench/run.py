"""The autsplit benchmark: one command per workload run.

    python3 perfbench/run.py --workload {sweep50,oracle-proofs,section-cache} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; paths are taken from this file's location.  The program
is built from `src/` (byte-compiled), every pass of the workload runs in a
fresh single-threaded interpreter (`worker.py`), one CLI call after another
with one closed-loop client, and every output is checked against
`expected/`.  Passes repeat while another one fits in `--seconds`; at least
one always runs.  The seed picks the item order; the program's own
`--seed` stays 0.

Untraced workers scale their times to a fixed host speed, which they
sample while they run (see `worker.py`).  `--trace 0` prints the
end-to-end metrics named in BENCHMARK.json;
`--trace 1` runs one untraced pass and then traced passes, and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it holds the run metadata.  Full results (and the spans of a traced
run) go to `.perfbench/results/` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

#: Interpreter starts whose set-up time a `--trace 0` run takes the median
#: of: at least the first, and more while time is left, up to the second.
SETUP_SAMPLES = 5
SETUP_SAMPLES_MAX = 15
WORKER_TIMEOUT_S = 150
IMPORT_METRICS = {"autsplit.cli": "import.autsplit_cli_s",
                  "sympy": "import.sympy_s"}


class BenchError(Exception):
    pass


# --- run metadata (stdlib only) ---

def git_commit(root: Path) -> str | None:
    """HEAD's commit read from `.git` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "sympy": _version("sympy"),
        "click": _version("click"), "commit": git_commit(ROOT),
        "loadavg": list(os.getloadavg()),
    }


# --- building and running the program ---

def build() -> None:
    """Byte-compile the program, so no pass pays for compiling it."""
    if not (SRC / "autsplit" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'autsplit'}")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q",
                           str(SRC)], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AUTSPLIT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Starts worker interpreters one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = _worker_env()
        self.count = 0
        self.cache_dir: Path | None = None

    def __call__(self, mode: str, trace: bool = False,
                 spans: Path | None = None,
                 cache_dir: Path | None = None) -> dict:
        self.count += 1
        cache_dir = cache_dir or self.cache_dir
        result_path = self.work / f"worker-{self.count}.json"
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode,
            "--trace", "1" if trace else "0", "--src", str(SRC),
            "--work", str(self.work), "--result", str(result_path)]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn-t", repr(t_spawn)], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             + "\n".join(err.splitlines()[-20:]))
        with open(result_path) as fh:
            result = json.load(fh)
        result["elapsed_s"] = time.monotonic() - t_spawn
        if trace:
            result["imports"] = import_costs(err)
        return result


def import_costs(importtime_log: str) -> dict:
    """Cumulative first-import seconds per module, from `-X importtime`."""
    out = {}
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in IMPORT_METRICS and name not in out:
            try:
                out[name] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "autsplit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def filled_section_cache(spawn: Spawner) -> tuple[Path, list[dict]]:
    """The certificate cache of `section-cache`, filled by one cold pass.

    The cold pass runs once per program source, before any timed pass,
    and its outputs are checked like any other.  Returns the directory and
    the outcomes of the cold pass if it ran here.
    """
    final = WORK / f"section-cache-{_src_digest()}"
    if (final / ".complete").exists():
        return final, []
    for stale in WORK.glob("section-cache-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = spawn.work / "section-cache-fill"
    tmp.mkdir()
    fill = spawn("fill", cache_dir=tmp)
    (tmp / ".complete").write_text("")
    try:
        tmp.rename(final)
    except OSError:  # another run filled it meanwhile
        shutil.rmtree(tmp, ignore_errors=True)
    return final, fill["items"]


# --- metrics ---

def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    attempted = sum(len(p["items"]) for p in passes)
    passed = sum(1 for p in passes for it in p["items"] if it["ok"])
    return {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
        "proven_items": statistics.median_low([
            sum(1 for it in p["items"] if it["ok"] and it["proof"] != wl.NO_PROOF)
            for p in passes]),
        "passed_share": passed / attempted,
    }


def per_layer(names: list[str], untraced: dict, traced: list[dict]) -> dict:
    """Counts from the first traced pass, times as medians over them."""
    first = traced[0]["trace"]
    out = {}
    for name in names:
        key = {"cli.items": "cli.item.calls",
               "cli.item_self_s": "cli.item.self_s"}.get(name, name)
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = statistics.median([t["trace"].get(key, 0.0) for t in traced])
        else:
            out[name] = first.get(key, 0)
    scans = out.get("oracle.order_p_coset_obstruction.calls", 0)
    out["oracle.order_p_coset_obstruction.conclusive_ratio"] = (
        out.get("oracle.order_p_coset_obstruction.conclusive", 0) / scans
        if scans else 0.0)
    for module, name in IMPORT_METRICS.items():
        out[name] = statistics.median([t["imports"].get(module, 0.0) for t in traced])
    out["trace.overhead_share"] = (
        statistics.median([t["wall_s"] for t in traced])
        / untraced["raw_wall_s"] - 1.0)
    return out


def counts_repeat(traced: list[dict]) -> bool:
    def counts(t):
        return {k: v for k, v in t["trace"].items()
                if not (k.endswith(".s") or k.endswith("_s"))}
    return all(counts(t) == counts(traced[0]) for t in traced[1:])


# --- the run ---

def measure(args, spawn: Spawner) -> tuple[dict, list[dict], dict]:
    """(metrics, every checked pass, extra facts for the result file)."""
    checked = []
    if args.workload == "section-cache":
        spawn.cache_dir, cold = filled_section_cache(spawn)
        if cold:
            checked.append({"items": cold, "cold": True})

    start = time.monotonic()

    def another_fits(passes):
        longest = max(p["elapsed_s"] for p in passes)
        return time.monotonic() - start + longest <= args.seconds

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        passes = [spawn("pass")]
        while another_fits(passes):
            passes.append(spawn("pass"))
        setups = [p["setup_s"] for p in passes]
        probes = []
        while len(setups) < SETUP_SAMPLES or (
                len(setups) < SETUP_SAMPLES_MAX and another_fits(probes or passes)):
            probes.append(spawn("setup"))
            setups.append(probes[-1]["setup_s"])
        metrics = end_to_end(passes, setups)
        names = [m["name"] for m in spec["end_to_end"]]
        extra = {"setups": setups}
        checked += passes
    else:
        spans = WORK / "results" / f"{args.workload}-seed{args.seed}-spans.json"
        untraced = spawn("pass")
        traced = [spawn("pass", trace=True, spans=spans)]
        while another_fits([untraced] + traced):
            traced.append(spawn("pass", trace=True))
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(names, untraced, traced)
        extra = {"counts_repeat": counts_repeat(traced), "spans": str(spans),
                 "trace": traced[0]["trace"],
                 "trace_missing": traced[0]["trace_missing"]}
        if extra["trace_missing"]:
            print("warning: not traced, no longer in the program: "
                  + ", ".join(extra["trace_missing"]), file=sys.stderr)
        checked += [untraced] + traced
    missing = set(names) - set(metrics)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return ({n: {"value": metrics[n], "unit": units[n]} for n in names},
            checked, extra)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    meta = run_metadata(args)
    work = WORK / f"run-{os.getpid()}"
    try:
        build()
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        work.mkdir(parents=True)
        spawn = Spawner(args.workload, args.seed, work)
        metrics, checked, extra = measure(args, spawn)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [it for p in checked for it in p["items"]]
    failures = [it for it in outcomes if not it["ok"]]
    for it in failures[:20]:
        print(f"FAILED {it['id']}: {it['reason']}", file=sys.stderr)
    meta.update({"loadavg_end": list(os.getloadavg()),
                 "passes": sum(1 for p in checked if not p.get("cold")),
                 "workers": spawn.count})
    result = {"correct": not failures, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}
    path = (WORK / "results"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result, **extra,
                   "passes": [{k: v for k, v in p.items() if k != "trace"}
                              for p in checked]}, fh, indent=1)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
