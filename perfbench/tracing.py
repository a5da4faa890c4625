"""Tracing wrappers that the benchmark installs around the program's functions.

Nothing under `src/` changes: `install` replaces each listed function in
every `autsplit` module that holds it, because `oracle`, `splitting`,
`cache` and `cli` import functions by name.  Coarse calls become spans
(name, start, end, self time, parent, item); hot leaf functions only bump
counters, so a pass that runs `mat_mul` about a million times stays cheap.
Everything is kept in memory; `Tracer.dump` writes it once.

Times are inclusive (`s`) or exclusive of wrapped callees (`self_s`).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # One frame per open wrapped call; a frame accumulates the time of
        # its wrapped callees so that self time can be taken on exit.
        self.stack = [[0.0]]
        self.counters: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.extra: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.open_spans: list[tuple[int, str]] = []
        self.next_id = 1
        self.item = None
        self.searched: set = set()

    def _cell(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0, 0.0])

    def counter(self, name: str, fn):
        """Wrap a hot function: calls, inclusive and self time, no spans."""
        cell = self._cell(name)
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                cell[0] += 1
                cell[1] += dt
                cell[2] += dt - frame[0]

        return wrapper

    def element_counter(self, name: str, fn):
        """Wrap a generator function: count the elements it yields."""
        extra = self.extra
        key = f"{name}.elems"

        def wrapper(*args, **kwargs):
            for x in fn(*args, **kwargs):
                extra[key] += 1
                yield x

        return wrapper

    def span(self, name: str, fn, after=None, item_of=None):
        """Wrap a coarse function: one span per call, then `after(args,
        result)` on success.  `item_of(args)` names the item a call starts."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.region(name, item_of(args) if item_of else None):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def region(self, name: str, item=None):
        return _Region(self, name, item)

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self.open_spans)

    def metrics(self) -> dict:
        out = {}
        for name, (calls, s, self_s) in self.counters.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        out.update(self.extra)
        return out

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "self_s", "parent", "item")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "counters": self.metrics()}, fh)


class _Region:
    __slots__ = ("tracer", "name", "item", "frame", "sid", "saved_item", "t0")

    def __init__(self, tracer: Tracer, name: str, item):
        self.tracer = tracer
        self.name = name
        self.item = item

    def __enter__(self):
        tr = self.tracer
        self.sid = tr.next_id
        tr.next_id += 1
        tr.open_spans.append((self.sid, self.name))
        self.saved_item = tr.item
        if self.item is not None:
            tr.item = self.item
        self.frame = [0.0]
        tr.stack.append(self.frame)
        self.t0 = tr.clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = tr.clock()
        dt = t1 - self.t0
        tr.stack.pop()
        tr.stack[-1][0] += dt
        tr.open_spans.pop()
        parent = tr.open_spans[-1][0] if tr.open_spans else 0
        self_s = dt - self.frame[0]
        cell = tr._cell(self.name)
        cell[0] += 1
        cell[1] += dt
        cell[2] += self_s
        tr.spans.append((self.sid, self.name, self.t0 - tr.origin,
                         t1 - tr.origin, self_s, parent, tr.item))
        tr.item = self.saved_item
        return False


# --- what gets wrapped ---
# The hooks read results through getattr with defaults, and install skips a
# function the program no longer has (reporting it in `missing`), so that a
# refactor of the program zeroes a layer metric instead of failing an item.

def _after_verify(tr: Tracer):
    def after(args, report):
        pairs = getattr(report, "pairs_checked", 0)
        tr.extra["splitting.verify_section.pairs"] += pairs
        if tr.inside("cache.load_block"):
            tr.extra["cache.recheck_pairs"] += pairs
    return after


def _after_table(tr: Tracer):
    def after(args, table):
        tr.extra["splitting.section_table.elems"] += len(table)
    return after


def _after_search(tr: Tracer):
    def after(args, result):
        tr.extra["oracle.complement_lift_search.assignments"] += \
            getattr(result, "assignments_tried", 0)
        spec = getattr(result, "spec", None)
        if spec in tr.searched:
            tr.extra["oracle.complement_lift_search.repeat_calls"] += 1
        tr.searched.add(spec)
    return after


def _after_scan(tr: Tracer):
    def after(args, report):
        tr.extra["oracle.order_p_coset_obstruction.coset_elems"] += \
            getattr(report, "coset_size", 0)
        if getattr(report, "verdict", None) == "NoOrderPLift":
            tr.extra["oracle.order_p_coset_obstruction.conclusive"] += 1
    return after


def _after_load(tr: Tracer):
    def after(args, cert):
        if cert is not None:
            tr.extra["cache.load_block.hits"] += 1
    return after


def _replace_everywhere(original, wrapper) -> None:
    """Point every `autsplit` module attribute that is `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "autsplit" and not mod_name.startswith("autsplit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tr: Tracer, row_item=None) -> list[str]:
    """Wrap the program's layer functions and return the names not found.

    `row_item(lineno)` names the item that a batch row answers.
    """
    from autsplit import cache, cli, endo, matrices, oracle, splitting

    span = tr.span
    item_of = (lambda args: row_item(args[1])) if row_item else None
    functions = [
        (splitting, "build_verified_section", span, {}),
        (splitting, "block_section", span, {}),
        (splitting, "assemble_section", span, {}),
        (splitting, "verify_section", span, {"after": _after_verify(tr)}),
        (splitting, "section_table", span, {"after": _after_table(tr)}),
        (oracle, "complement_lift_search", span, {"after": _after_search(tr)}),
        (oracle, "order_p_coset_obstruction", span, {"after": _after_scan(tr)}),
        (oracle, "find_generators_of_Q", span, {}),
        (oracle, "dimino_closure", tr.counter, {}),
        (oracle, "enumerate_delta", tr.element_counter, {}),
        (endo, "compose", tr.counter, {}),
        (endo, "check_hom_constraints", tr.counter, {}),
        (endo, "pow_endo", tr.counter, {}),
        (endo, "invert", tr.counter, {}),
        (matrices, "mat_mul", tr.counter, {}),
        (matrices, "inv_mod", tr.counter, {}),
    ]
    missing = []
    for mod, attr, wrap, kw in functions:
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        original = getattr(mod, attr, None)
        if original is None:
            missing.append(name)
            continue
        _replace_everywhere(original, wrap(name, original, **kw))

    # A batch row is one item: `_batch_row(line, lineno, ...)`.
    if hasattr(cli, "_batch_row"):
        _replace_everywhere(cli._batch_row,
                            span("cli.item", cli._batch_row, item_of=item_of))
    else:
        missing.append("cli._batch_row")

    # Cache I/O are methods; stores of blocks and of specs share a name.
    cls = cache.CertificateCache
    for attr, name, kw in (("load_block", "cache.load_block",
                            {"after": _after_load(tr)}),
                           ("store_block", "cache.store", {}),
                           ("store_spec", "cache.store", {})):
        if hasattr(cls, attr):
            setattr(cls, attr, span(name, getattr(cls, attr), **kw))
        else:
            missing.append(f"cache.CertificateCache.{attr}")
    return missing
