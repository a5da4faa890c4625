"""Command-line front end.

JSON (or CSV) results on stdout, logs on stderr.  Exit codes: 0 for any
computed verdict (including Unknown), 2 for invalid input, 3 for budget
exhaustion or a certificate whose entries may be too long to print, 4 for
a failed verification or a `batch` cross-check that raised (a bug signal),
5 for a section of a group whose classifier verdict is not Splits.  One
table, `_EXITS`, maps the exceptions that end a command to these; any other
is a bug.  Every flag can also be set through an AUTSPLIT_-prefixed
environment variable; flags win.

Every section certificate that `section` prints, and every `batch` row that
reports `SectionVerified`, has passed the complete Cayley-edge proof of
`splitting.verify_section`.  A cached block is proved there, inside the
section it goes into, and not again when it is loaded; `cache verify` proves
each entry on its own.  The cache is advisory: an entry that cannot be read,
is not on its block's fixed generators, or fails its own proof after the
section's failed is a miss, and one that cannot be written is skipped; both
are reported on stderr, never an error.  A --spec-file or batch INPUT_FILE that
cannot be read as UTF-8, and an -o file that cannot be written, are invalid
input.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import sys

import click

from . import oracle as _oracle
from .cache import CertificateCache
from .errors import (
    BAD_INPUT,
    BudgetExceeded,
    NotSplitBlock,
    RankTooSmall,
    SpecError,
    VerificationFailed,
)
from .groups import (
    DEFAULT_DELTA_BUDGET,
    DEFAULT_ELEMENT_BUDGET,
    PGroupSpec,
    delta_order,
    gl_order,
    pi_order,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from .splitting import build_verified_section, classify

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY_FAILED = 4
EXIT_NOT_SPLIT = 5


def _echo_json(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True))


def _parse_blocks(blocks: tuple[str, ...]):
    out = []
    for b in blocks:
        try:
            n, r = b.split(":")
            out.append((int(n), int(r)))
        except ValueError as exc:
            raise SpecError(f"bad block {b!r}, expected n:r") from exc
    return out


def _spec_from_options(p, blocks, spec_file) -> PGroupSpec:
    """The spec the options give; exits EXIT_INVALID if it is invalid.

    An unreadable or undecodable --spec-file counts as invalid input.
    """
    try:
        if spec_file is not None:
            with open(spec_file, encoding="utf-8") as fh:
                return spec_from_json(json.load(fh))
        if p is None or not blocks:
            raise SpecError("provide -p and -b n:r, or --spec-file")
        return validate_spec(p, _parse_blocks(blocks))
    except BAD_INPUT as exc:
        _fail_invalid(exc)


def _fail_invalid(exc) -> None:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(EXIT_INVALID)


def _may_be_unprintable(spec: PGroupSpec) -> bool:
    """Whether a section's entries can pass the interpreter's digit limit.

    An entry in a block of exponent n lies in [0, p^n), and in a block that
    some quotient generator moves (|GL_r(F_p)| > 1) it can be any of them.
    So the spec alone says when p^n - 1, the largest, has more digits than
    `sys.get_int_max_str_digits()`, that is, when p^n > 10^limit; a limit
    of 0 means none.  This answers before the search, which can take
    seconds, learns whether the entries it found happen to be shorter.
    Compared in logarithms, and exactly within one digit of the limit, so
    a huge n costs nothing.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    for n, r in spec.blocks:
        if gl_order(spec.p, r) == 1:
            continue
        digits = n * math.log10(spec.p)  # far less than 1 off
        if digits > limit + 1 or (digits > limit - 1
                                  and spec.p ** n > 10 ** limit):
            return True
    return False


#: Exit code and stderr prefix for each exception that may end a command;
#: looked up by exact type, as none of these has a subclass.
_EXITS = {
    RankTooSmall: (EXIT_INVALID, "error: RankTooSmall"),
    BudgetExceeded: (EXIT_BUDGET, "budget exceeded"),
    VerificationFailed: (EXIT_VERIFY_FAILED, "verification failed (bug signal)"),
    NotSplitBlock: (EXIT_NOT_SPLIT, "no section"),
}


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXITS) as exc:
            code, prefix = _EXITS[type(exc)]
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)


@click.group(cls=_Main)
def main() -> None:
    """Splitting decisions for the automorphism group of a finite abelian p-group."""


def _spec_options(f):
    f = click.option("--spec-file", type=click.Path(exists=True),
                     default=None, help="Spec JSON file.")(f)
    f = click.option("-b", "--block", "blocks", multiple=True,
                     help="Block as n:r, repeatable, increasing n.")(f)
    f = click.option("-p", "prime", type=int, default=None,
                     help="The prime p.")(f)
    return f


@main.command("classify")
@_spec_options
def cmd_classify(prime, blocks, spec_file) -> None:
    """Print the splitting verdict for a group."""
    spec = _spec_from_options(prime, blocks, spec_file)
    _echo_json(classify(spec).to_json())


@main.command("section")
@_spec_options
@click.option("--cache-dir", type=click.Path(), default=None)
@click.option("--budget-assignments", type=int,
              default=_oracle.DEFAULT_ASSIGNMENT_BUDGET)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Also write the certificate JSON to this file.")
def cmd_section(prime, blocks, spec_file, cache_dir, budget_assignments,
                output) -> None:
    """Construct and verify an explicit section; print the certificate."""
    spec = _spec_from_options(prime, blocks, spec_file)
    verdict = classify(spec)
    if verdict.outcome != "Splits":
        click.echo(f"classifier verdict is {verdict.outcome}; no section",
                   err=True)
        sys.exit(EXIT_NOT_SPLIT)
    unprintable = BudgetExceeded("a certificate entry has more than "
                                 f"{sys.get_int_max_str_digits()} digits to "
                                 "print")
    if _may_be_unprintable(spec):  # before any search, and before -o
        raise unprintable
    cache = CertificateCache(cache_dir) if cache_dir else None
    cert, report = build_verified_section(
        spec, oracle_budget=budget_assignments, cache=cache)
    payload = cert.to_json()
    try:  # before -o is opened, so an unprintable one leaves no file
        text = json.dumps(payload, sort_keys=True)
    except ValueError:  # an entry past the interpreter's digit limit
        raise unprintable from None
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
        except OSError as exc:
            _fail_invalid(exc)
    click.echo(text)
    click.echo(
        f"verified: mode={report.mode} pairs={report.pairs_checked}", err=True)


@main.group("oracle")
def cmd_oracle() -> None:
    """Brute-force ground-truth checks."""


@cmd_oracle.command("bijective-equiv")
@_spec_options
@click.option("--samples", type=int, default=10_000)
@click.option("--seed", type=int, default=0)
@click.option("--budget-elems", type=int, default=DEFAULT_ELEMENT_BUDGET)
def cmd_bijective_equiv(prime, blocks, spec_file, samples, seed,
                        budget_elems) -> None:
    """Compare the unit criterion against brute-force bijectivity."""
    spec = _spec_from_options(prime, blocks, spec_file)
    report = _oracle.bijective_equivalence_report(
        spec, samples=samples, seed=seed, element_budget=budget_elems)
    _echo_json(report.to_json())
    sys.exit(EXIT_OK if report.disagreements == 0 else EXIT_VERIFY_FAILED)


@cmd_oracle.command("delta-count")
@_spec_options
@click.option("--budget-elems", type=int, default=DEFAULT_DELTA_BUDGET)
def cmd_delta_count(prime, blocks, spec_file, budget_elems) -> None:
    """Check the kernel-size formula against direct enumeration."""
    spec = _spec_from_options(prime, blocks, spec_file)
    formula = delta_order(spec)
    enumerated = sum(1 for _ in _oracle.enumerate_delta(
        spec, budget=budget_elems))
    _echo_json({"spec": spec_to_json(spec), "formula": formula,
                "enumerated": enumerated, "agree": formula == enumerated})


@cmd_oracle.command("obstruction")
@_spec_options
@click.option("--budget-elems", type=int, default=DEFAULT_DELTA_BUDGET)
def cmd_obstruction(prime, blocks, spec_file, budget_elems) -> None:
    """Scan the transvection-lift coset for an order-p element."""
    spec = _spec_from_options(prime, blocks, spec_file)
    report = _oracle.order_p_coset_obstruction(spec, budget=budget_elems)
    _echo_json(report.to_json())


@cmd_oracle.command("complement-search")
@_spec_options
@click.option("--budget-assignments", type=int,
              default=_oracle.DEFAULT_ASSIGNMENT_BUDGET)
@click.option("--budget-elems", type=int, default=DEFAULT_DELTA_BUDGET)
@click.option("--pre-obstruction/--no-pre-obstruction", default=True,
              help="Run the cheap coset obstruction before searching.")
def cmd_complement_search(prime, blocks, spec_file, budget_assignments,
                          budget_elems, pre_obstruction) -> None:
    """Exhaustive generator-lift search deciding splitting directly."""
    spec = _spec_from_options(prime, blocks, spec_file)
    result = _oracle.complement_lift_search(
        spec, assignment_budget=budget_assignments,
        delta_budget=budget_elems, pre_obstruction=pre_obstruction)
    _echo_json(result.to_json())
    sys.exit(EXIT_BUDGET if result.outcome == "BudgetExceeded" else EXIT_OK)


# --- batch sweeps ---

def _oracle_cross_check(spec: PGroupSpec, outcome: str,
                        budget_assignments: int, budget_elems: int):
    """(oracle_verdict, agreement) for one spec; agreement None = classifier-only."""
    if outcome == "Splits":
        if pi_order(spec) > 5000:
            return None, None
        try:
            build_verified_section(spec, oracle_budget=budget_assignments)
            return "SectionVerified", True
        except BudgetExceeded:
            return None, None
        except (VerificationFailed, NotSplitBlock):
            return "SectionFailed", False
    if outcome == "DoesNotSplit":
        try:
            report = _oracle.order_p_coset_obstruction(
                spec, budget=budget_elems)
        except (RankTooSmall, BudgetExceeded):
            return None, None
        if report.verdict == "NoOrderPLift":
            return "NoOrderPLift", True
        return "OrderPLiftExists", None
    # Unknown: any lift search's kernel array would pass KERNEL_BYTES
    return None, None


def _batch_row(spec: PGroupSpec, lineno: int, with_oracle: bool,
               budget_assignments: int, budget_elems: int) -> dict:
    verdict = classify(spec)
    row = {
        "line": lineno,
        "spec": spec_to_json(spec),
        "outcome": verdict.outcome,
        "rule": verdict.rule,
        "oracle": None,
        "agreement": None,
    }
    if with_oracle:
        try:
            oracle_verdict, agreement = _oracle_cross_check(
                spec, verdict.outcome, budget_assignments, budget_elems)
        except Exception as exc:  # a bug signal; the other rows go on
            stage = "section" if verdict.outcome == "Splits" else "obstruction"
            row["error"] = f"{stage}: {type(exc).__name__}: {exc}"
            return row
        row["oracle"] = oracle_verdict
        row["agreement"] = agreement
        if oracle_verdict is None or agreement is None:
            row["note"] = "classifier-only"
    return row


@main.command("batch")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--with-oracle", is_flag=True, default=False)
@click.option("--budget-assignments", type=int, default=2 ** 16)
@click.option("--budget-elems", type=int, default=DEFAULT_DELTA_BUDGET)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
@click.option("--continue", "continue_on_error", is_flag=True, default=False,
              help="Keep going past malformed lines (still exits 2).")
@click.option("--workers", type=int, default=1,
              help="Process rows in parallel, in at most as many processes "
                   "as there are lines and CPUs; output stays in input "
                   "order.")
def cmd_batch(input_file, with_oracle, budget_assignments, budget_elems, fmt,
              continue_on_error, workers) -> None:
    """One verdict row per spec line of a JSONL file.

    A line that is not a valid spec is an error row and exits 2 (before any
    cross-check, unless --continue).  A cross-check that raises is an error
    row naming its stage; the other rows are printed, and the run exits 4.
    """
    try:
        with open(input_file, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except BAD_INPUT as exc:
        _fail_invalid(exc)

    rows, specs = {}, {}
    for lineno, line in enumerate(lines, 1):
        try:
            specs[lineno] = spec_from_json(json.loads(line))
        except (*BAD_INPUT, TypeError) as exc:
            rows[lineno] = {"line": lineno,
                            "error": f"{type(exc).__name__}: {exc}"}
    if rows and not continue_on_error:
        specs = {}  # the first error row exits below, before any cross-check

    row_of = functools.partial(
        _batch_row, with_oracle=with_oracle,
        budget_assignments=budget_assignments, budget_elems=budget_elems)
    # a process pool starts all of its workers at the first submit
    workers = min(workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows.update(zip(specs, pool.map(row_of, specs.values(), specs)))
    else:
        rows.update(zip(specs, map(row_of, specs.values(), specs)))
    rows = [rows[lineno] for lineno in sorted(rows)]

    had_error = False
    stage_failed = False
    disagreement = False
    for row in rows:
        if "error" in row:
            click.echo(f"line {row['line']}: {row['error']}", err=True)
            if "outcome" in row:  # the line was a spec; its cross-check raised
                stage_failed = True
                continue
            had_error = True
            if not continue_on_error:
                sys.exit(EXIT_INVALID)
        elif row.get("agreement") is False:
            disagreement = True

    if fmt == "json":
        for row in rows:
            _echo_json(row)
    else:
        cols = ["line", "spec", "outcome", "rule", "oracle", "agreement",
                "note", "error"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            flat = dict(row)
            if "spec" in flat:
                flat["spec"] = json.dumps(flat["spec"], sort_keys=True)
            writer.writerow(flat)
        click.echo(buf.getvalue(), nl=False)

    if had_error:
        sys.exit(EXIT_INVALID)
    if stage_failed:
        sys.exit(EXIT_VERIFY_FAILED)
    if disagreement:
        sys.exit(1)


# --- cache management ---

@main.group("cache")
@click.option("--cache-dir", type=click.Path(), required=True)
@click.pass_context
def cmd_cache(ctx, cache_dir) -> None:
    """Inspect or clear the certificate cache."""
    ctx.obj = CertificateCache(cache_dir)


@cmd_cache.command("list")
@click.pass_obj
def cmd_cache_list(cache: CertificateCache) -> None:
    for path in cache.entries():
        click.echo(path.name)


@cmd_cache.command("verify")
@click.pass_obj
def cmd_cache_verify(cache: CertificateCache) -> None:
    bad = 0
    for name, ok, detail in cache.verify_all():
        click.echo(f"{name}: {'ok' if ok else 'FAILED'} ({detail})")
        bad += 0 if ok else 1
    if bad:
        sys.exit(EXIT_VERIFY_FAILED)


@cmd_cache.command("clear")
@click.pass_obj
def cmd_cache_clear(cache: CertificateCache) -> None:
    click.echo(f"removed {cache.clear()} certificates")


def run() -> None:
    main(auto_envvar_prefix="AUTSPLIT")


if __name__ == "__main__":
    run()
