"""One pass of one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py --workload W --seed N --spawn-t T \
        --mode {pass,setup,fill} --trace {0,1} --src SRC --work DIR \
        --result FILE [--cache-dir D] [--spans FILE]

The program is imported first, so that its import cost is what set-up
measures.  Set-up ends when the inputs are loaded; `setup_s` is the time
since the parent spawned this process (`--spawn-t`, on the shared
monotonic clock).  The pass then makes its CLI calls one after another,
timing each call alone; outputs are checked after each call, outside the
timed region.

An untraced worker also samples the host's speed during set-up and during
its calls: every `PROBE_PERIOD_S` a timer signal runs `probe_loop`, a
fixed pure-Python loop, and times it.  On a shared host a core's speed
swings by up to 2x within seconds, and the program slows with it.
`setup_s` and `wall_s` are therefore scaled by the mean probe speed over
the same interval: they are the times the work would take on a core that
runs the probe loop in `PROBE_REF_S`.  `raw_setup_s` and `raw_wall_s` are
the same times unscaled.  Probe time is subtracted from all four.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

#: Wall time between two host-speed probes of an untraced worker.
PROBE_PERIOD_S = 0.05
#: The probe loop's time on the core that times are scaled to: about its
#: time on an idle core of the 2-vCPU Xeon VM that the benchmark was
#: defined on.
PROBE_REF_S = 1.5e-3


def probe_loop(n: int = 100) -> int:
    """A fixed piece of work like the program's own: small integer
    matrix products mod 25 and a dict of tuples; about 1.5 ms."""
    p = 25
    a = [[(i * 7 + j * 3 + 1) % p for j in range(4)] for i in range(4)]
    m = a
    seen = {}
    for t in range(n):
        m = [[sum(m[i][k] * a[k][j] for k in range(4)) % p for j in range(4)]
             for i in range(4)]
        seen[tuple(map(tuple, m))] = t
    return len(seen)


class SpeedProbe:
    """Times `probe_loop` every `PROBE_PERIOD_S` while it is on."""

    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, seconds)
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.runs.append((t0, time.perf_counter() - t0))

    def on(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def off(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def seconds_within(self, t0: float, t1: float) -> float:
        """Time spent probing in the interval [t0, t1]."""
        return sum(d for start, d in self.runs if t0 <= start <= t1)

    def scaled(self, seconds: float, since: int = 0) -> float:
        """`seconds` times the mean speed of the probes from the
        `since`-th on, relative to `PROBE_REF_S`; unscaled if none ran."""
        runs = self.runs[since:]
        if not runs:
            return seconds
        return seconds * sum(PROBE_REF_S / d for _, d in runs) / len(runs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "fill"),
                    required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    clock = time.perf_counter
    probe = SpeedProbe() if not args.trace else None
    if probe is not None:
        probe.on()
    t_in = clock()

    import autsplit.cli as cli
    from pathlib import Path

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src)):
        print(f"error: autsplit imported from {cli.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return 2

    import resource

    from click.testing import CliRunner

    import workloads as wl

    items = wl.load_items(args.workload)
    order = items if args.mode == "fill" else wl.seeded_order(items, args.seed)
    sweep_file = str(Path(args.work) / f"sweep50-seed{args.seed}.jsonl")
    if args.workload == "sweep50":
        Path(sweep_file).write_text(wl.sweep_jsonl(order))
    calls = wl.invocations(args.workload, order, sweep_file, args.cache_dir)
    runner = CliRunner()

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        missing = install(tracer,
                          row_item=lambda lineno: order[lineno - 1]["id"])

    setup_s = time.monotonic() - args.spawn_t
    result = {"raw_setup_s": setup_s, "setup_s": setup_s,
              "order": [it["id"] for it in order]}
    if probe is not None:
        t_ready = clock()
        probe.off()
        setup_s -= probe.seconds_within(t_in, t_ready)
        result.update({"raw_setup_s": setup_s,
                       "setup_s": probe.scaled(setup_s),
                       "setup_probes": len(probe.runs)})
    if args.mode == "setup":
        return _write(args.result, result)

    pass_probes = len(probe.runs) if probe is not None else 0
    wall = 0.0
    outcomes = []
    for cli_args, answered in calls:
        single = len(answered) == 1
        if tracer is not None:
            t0 = clock()
            with tracer.region("cli.item" if single else "cli.batch",
                               answered[0]["id"] if single else None):
                res = runner.invoke(cli.main, cli_args,
                                    auto_envvar_prefix="AUTSPLIT")
            wall += clock() - t0
        else:
            probe.on()
            t0 = clock()
            try:
                res = runner.invoke(cli.main, cli_args,
                                    auto_envvar_prefix="AUTSPLIT")
            finally:
                t1 = clock()
                probe.off()
            wall += t1 - t0 - probe.seconds_within(t0, t1)
        tb = None
        if res.exception is not None and not isinstance(res.exception,
                                                         SystemExit):
            import traceback
            tb = "".join(traceback.format_exception(*res.exc_info))
        outcomes += wl.check_call(args.workload, answered, res.exit_code, tb,
                                  res.stdout)

    result.update({
        "raw_wall_s": wall,
        "wall_s": wall if probe is None else probe.scaled(wall, pass_probes),
        "pass_probes": 0 if probe is None else len(probe.runs) - pass_probes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": outcomes,
    })
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_missing"] = missing
        if args.spans:
            tracer.dump(args.spans)
    return _write(args.result, result)


def _write(path: str, obj: dict) -> int:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    sys.exit(code)
