"""Command-line interface, driven through click's test runner."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import autsplit
from autsplit import cli, endo, oracle, splitting
from autsplit import matrices as mx
from autsplit.cache import CertificateCache
from autsplit.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_SPLIT,
    EXIT_VERIFY_FAILED,
    main,
)
from autsplit.errors import (
    BudgetExceeded,
    NotSplitBlock,
    RankTooSmall,
    VerificationFailed,
)
from autsplit.groups import (
    delta_order,
    gl_order,
    pi_order,
    spec_from_json,
    validate_spec,
)
from autsplit.splitting import (
    SectionCertificate,
    build_verified_section,
    classify,
    verify_section,
)
from conftest import SWEEP50_PATH


#: JSON past the parser's limits: nested too deeply for its recursion, and
#: an integer literal past the interpreter's 4300-digit limit.
TOO_DEEP = "[" * 100_000 + "]" * 100_000
TOO_LONG = '{"p": 5, "blocks": [{"n": ' + "1" * 5000 + ', "r": 1}]}'
PARSER_LIMITS = [(TOO_DEEP, "RecursionError: "),
                 (TOO_LONG, "ValueError: Exceeds the limit (4300 digits)")]


@pytest.fixture
def runner():
    return CliRunner()


class TestClassify:
    def test_splits(self, runner):
        res = runner.invoke(main, ["classify", "-p", "3", "-b", "2:2"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["outcome"] == "Splits"

    def test_does_not_split(self, runner):
        res = runner.invoke(main, ["classify", "-p", "5", "-b", "2:2"])
        assert json.loads(res.output)["outcome"] == "DoesNotSplit"

    def test_unknown(self, runner):
        res = runner.invoke(main, ["classify", "-p", "2", "-b", "2:4",
                                   "-b", "3:1"])
        assert json.loads(res.output)["outcome"] == "Unknown"

    def test_spec_file(self, runner, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"p": 5, "blocks": [{"n": 2, "r": 1}]}))
        res = runner.invoke(main, ["classify", "--spec-file", str(f)])
        assert res.exit_code == 0
        assert json.loads(res.output)["outcome"] == "Splits"

    def test_invalid_spec(self, runner):
        res = runner.invoke(main, ["classify", "-p", "4", "-b", "1:1"])
        assert res.exit_code == EXIT_INVALID

    def test_bad_block_syntax(self, runner):
        res = runner.invoke(main, ["classify", "-p", "2", "-b", "nope"])
        assert res.exit_code == EXIT_INVALID

    def test_spec_file_is_a_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["classify", "--spec-file", str(tmp_path)])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("error: IsADirectoryError: ")

    def test_spec_file_not_utf8(self, runner, tmp_path):
        f = tmp_path / "spec.json"
        f.write_bytes(b'{"p": 5, "blocks": [{"n": 2, "r": 1}]} \xff\xfe')
        res = runner.invoke(main, ["classify", "--spec-file", str(f)])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("error: UnicodeDecodeError: ")

    @pytest.mark.parametrize("text,error", PARSER_LIMITS,
                             ids=["too-deep", "too-long"])
    def test_spec_file_past_the_parser_limits(self, runner, tmp_path, text,
                                              error):
        f = tmp_path / "spec.json"
        f.write_text(text)
        res = runner.invoke(main, ["classify", "--spec-file", str(f)])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith(f"error: {error}")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""


@pytest.mark.parametrize("exc,code,prefix", [
    (RankTooSmall, EXIT_INVALID, "error: RankTooSmall"),
    (BudgetExceeded, EXIT_BUDGET, "budget exceeded"),
    (VerificationFailed, EXIT_VERIFY_FAILED,
     "verification failed (bug signal)"),
    (NotSplitBlock, EXIT_NOT_SPLIT, "no section"),
], ids=["RankTooSmall", "BudgetExceeded", "VerificationFailed",
        "NotSplitBlock"])
def test_exit_table(runner, monkeypatch, exc, code, prefix):
    def failing(*args, **kwargs):
        raise exc("the message")

    monkeypatch.setattr(cli, "build_verified_section", failing)
    res = runner.invoke(main, ["section", "-p", "2", "-b", "2:2"])
    assert res.exit_code == code
    assert res.stderr == f"{prefix}: the message\n"
    assert res.stdout == ""


def test_other_exceptions_are_bugs_with_a_traceback(runner, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "build_verified_section", failing)
    res = runner.invoke(main, ["section", "-p", "2", "-b", "2:2"])
    assert isinstance(res.exception, RuntimeError)
    assert res.exit_code == 1


def test_module_entry_point_reads_the_environment():
    # `python -m autsplit.cli` runs `run()`, which reads AUTSPLIT_ variables
    src = str(Path(autsplit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AUTSPLIT_")}

    def section(*flags, **variables):
        res = subprocess.run(
            [sys.executable, "-m", "autsplit.cli", "section", "-p", "2",
             "-b", "2:3", *flags], capture_output=True,
            env={**env, "PYTHONPATH": src, **variables})
        return res.returncode, res.stdout

    # the search of (2; 2:3) tries 4 assignments
    starved = section("--budget-assignments", "1")
    assert starved == (EXIT_BUDGET, b"")
    assert section(AUTSPLIT_SECTION_BUDGET_ASSIGNMENTS="1") == starved
    assert section()[0] == 0
    assert section("--budget-assignments", "65536",
                   AUTSPLIT_SECTION_BUDGET_ASSIGNMENTS="1") == section()


def test_cli_import_leaves_out_sympy():
    code = "import sys, autsplit.cli; print('sympy' in sys.modules)"
    src = str(Path(autsplit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def _tamper_first_image(text):
    """Change one entry mod p, so the image no longer reduces to its generator."""
    obj = json.loads(text)
    obj["images"][0]["cells"][0][0][0][0] += 1
    return json.dumps(obj)


def _swap_generators(text):
    """Swap the two generators, and their images: still a proved section."""
    obj = json.loads(text)
    for key in ("generators", "images"):
        obj[key].reverse()
    assert verify_section(SectionCertificate.from_json(obj)).ok
    return json.dumps(obj)


def _float_entries(text):
    """Write every generator and image entry as a float: 1 becomes 1.0."""
    def floats(x):
        return [floats(y) for y in x] if isinstance(x, list) else float(x)

    obj = json.loads(text)
    obj["generators"] = floats(obj["generators"])
    obj["images"] = [{"cells": floats(img["cells"])} for img in obj["images"]]
    return json.dumps(obj)


class TestSection:
    def test_certificate_output(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        res = runner.invoke(main, ["section", "-p", "5", "-b", "2:1",
                                   "-o", str(out)])
        assert res.exit_code == 0
        cert = SectionCertificate.from_json(json.loads(out.read_text()))
        assert verify_section(cert).ok
        assert cert.verification["ok"] is True

    def test_non_split_exit_code(self, runner):
        res = runner.invoke(main, ["section", "-p", "5", "-b", "2:2"])
        assert res.exit_code == EXIT_NOT_SPLIT

    def test_unknown_exit_code(self, runner):
        res = runner.invoke(main, ["section", "-p", "3", "-b", "1:1",
                                   "-b", "2:3"])
        assert res.exit_code == EXIT_NOT_SPLIT

    def test_budget_message_names_the_bound(self, runner):
        # |Delta| = 2^18 passes the kernel budget, whatever the assignments
        res = runner.invoke(main, ["section", "-p", "2", "-b", "3:3",
                                   "--budget-assignments", "100000000"])
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == ("budget exceeded: section search for (p=2, "
                              "n=3, r=3) ran out of budget: kernel too "
                              "large\n")

    def test_each_block_bounded_not_the_quotient(self, runner):
        # |Q| = |GL_4(F_2)| * |GL_3(F_2)| = 3386880 is past 2^20, but each
        # block is walked on its own; |GL_3(F_5)| = 1488000 is not
        res = runner.invoke(main, ["section", "-p", "2", "-b", "1:4",
                                   "-b", "2:3"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["verification"]["ok"] is True
        res = runner.invoke(main, ["section", "-p", "5", "-b", "1:3"])
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == ("budget exceeded: quotient too large to "
                              "verify generators\n")

    def test_cache_round_trip(self, runner, tmp_path):
        cache = tmp_path / "cache"
        args = ["section", "-p", "2", "-b", "2:2",
                "--cache-dir", str(cache)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        stored = sorted(p.name for p in cache.glob("*.json"))
        assert "block-p2-n2-r2.json" in stored
        # second run loads the cached block section
        res2 = runner.invoke(main, args)
        assert res2.exit_code == 0

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:len(text) // 2],
        lambda text: "not json",
        _tamper_first_image,
        # a proved certificate, but for another block
        lambda text: json.dumps(build_verified_section(
            validate_spec(2, [(1, 2)]))[0].to_json()),
        _float_entries,
        lambda text: TOO_DEEP,
        _swap_generators,
    ], ids=["truncated", "not-json", "fails-proof", "other-block",
            "float-entries", "too-deep", "other-generators"])
    def test_bad_cache_entry_is_a_miss(self, runner, tmp_path, corrupt):
        # alone, and inside a section of two blocks that holds the entry,
        # where an entry that loads is proved only with the whole section
        for blocks in (["-b", "2:2"], ["-b", "1:2", "-b", "2:2"]):
            cache = tmp_path / f"cache{len(blocks)}"
            args = ["section", "-p", "2", *blocks]
            clean = runner.invoke(main, args)
            assert clean.exit_code == 0
            args += ["--cache-dir", str(cache)]
            assert runner.invoke(main, args).exit_code == 0
            entry = cache / "block-p2-n2-r2.json"
            good = entry.read_text()
            bad = corrupt(good)
            assert bad != good
            entry.write_text(bad)
            res = runner.invoke(main, args)
            assert res.exit_code == 0
            warning, *log = res.stderr.splitlines()
            assert warning.startswith(
                "warning: ignoring cache entry block-p2-n2-r2.json: ")
            assert log == clean.stderr.splitlines()
            assert res.stdout == clean.stdout
            assert entry.read_text() == good  # rewritten, with int entries
            cert = SectionCertificate.from_json(json.loads(entry.read_text()))
            assert cert.spec == validate_spec(2, [(2, 2)])
            assert verify_section(cert).ok
            assert [p.name for p in cache.iterdir()] == [entry.name]


    def test_cache_write_error_is_a_warning(self, runner, tmp_path):
        # the cache is advisory: a --cache-dir that names a file costs a
        # warning, not the certificate
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        args = ["section", "-p", "2", "-b", "2:2"]
        res = runner.invoke(main, args + ["--cache-dir", str(blocker)])
        assert res.exit_code == 0
        warnings = [line for line in res.stderr.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "FileExistsError" in warnings[0]
        assert res.stdout == runner.invoke(main, args).stdout

    def test_output_is_a_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["section", "-p", "5", "-b", "2:1",
                                   "-o", str(tmp_path)])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("error: IsADirectoryError: ")
        assert res.stdout == ""

    @pytest.mark.parametrize("blocks", [["9100:1"], ["2:2", "9100:1"]])
    def test_unprintable_certificate_is_a_budget_exit(self, runner, tmp_path,
                                                      blocks):
        # 3^9100 has 4342 digits, past the interpreter's default 4300
        out = tmp_path / "cert.json"
        args = ["section", "-p", "3", "-o", str(out)]
        for b in blocks:
            args += ["-b", b]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == ("budget exceeded: a certificate entry has "
                              "more than 4300 digits to print\n")
        assert res.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("blocks", [["300000:1"], ["2:2", "9100:1"],
                                        ["10000000000000:1"]])
    def test_unprintable_exits_before_any_search(self, runner, tmp_path,
                                                 blocks, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched for a section")
        monkeypatch.setattr(cli, "build_verified_section", no_search)
        out = tmp_path / "cert.json"
        args = ["section", "-p", "3", "-o", str(out)]
        for b in blocks:
            args += ["-b", b]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == ("budget exceeded: a certificate entry has "
                              "more than 4300 digits to print\n")
        assert res.stdout == ""
        assert not out.exists()

    def test_unprintable_after_the_search_is_still_a_budget_exit(
            self, runner, tmp_path, monkeypatch):
        # the late check stays as the backstop of the one from the spec
        monkeypatch.setattr(cli, "_may_be_unprintable", lambda spec: False)
        out = tmp_path / "cert.json"
        res = runner.invoke(main, ["section", "-p", "3", "-b", "9100:1",
                                   "-o", str(out)])
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == ("budget exceeded: a certificate entry has "
                              "more than 4300 digits to print\n")
        assert not out.exists()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_unprintable_from_the_spec_at_the_limit(self, p, monkeypatch):
        # p^n - 1 has more than `limit` digits exactly when p^n > 10^limit
        for limit in (640, 4300):
            monkeypatch.setattr(sys, "get_int_max_str_digits",
                                lambda: limit)
            edge = int(limit / math.log10(p))
            for n in range(edge - 2, edge + 3):
                moved = validate_spec(p, [(n, 2)])
                assert (cli._may_be_unprintable(moved)
                        == (p ** n - 1 >= 10 ** limit))
        assert not cli._may_be_unprintable(validate_spec(2, [(10 ** 6, 1)]))
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert not cli._may_be_unprintable(validate_spec(p, [(10 ** 6, 2)]))

    def test_trivial_quotient_with_a_long_exponent_prints(self, runner,
                                                          tmp_path):
        # n = 14300 puts 2^n past the digit limit, but there are no images
        out = tmp_path / "cert.json"
        res = runner.invoke(main, ["section", "-p", "2", "-b", "14300:1",
                                   "-o", str(out)])
        assert res.exit_code == 0
        assert res.stdout == (
            '{"generators": [], "images": [], "spec": {"blocks": [{"n": '
            '14300, "r": 1}], "p": 2}, "verification": {"mode": '
            '"cayley-edges", "ok": true, "pairs": 0}}\n')
        assert json.loads(out.read_text()) == json.loads(res.stdout)

    def test_stored_spec_is_compared_before_parsing(self, tmp_path,
                                                    monkeypatch, capsys):
        # parsing a spec with n = 4*10^6 computes 2^n, which takes seconds
        cache = CertificateCache(tmp_path)
        cert, _ = build_verified_section(validate_spec(2, [(2, 2)]))
        path = cache.store_block(2, 2, 2, cert)
        obj = json.loads(path.read_text())
        obj["spec"]["blocks"][0]["n"] = 4 * 10 ** 6
        path.write_text(json.dumps(obj))

        def never(obj):
            pytest.fail("a mismatching entry reached from_json")

        monkeypatch.setattr(SectionCertificate, "from_json",
                            staticmethod(never))
        assert cache.load_block(2, 2, 2) is None
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "warning: ignoring cache entry block-p2-n2-r2.json: ")
        # `cache verify` takes the same path
        assert cache.verify_all() == [(path.name, False, (
            "certificate is not for block (p=2, n=2, r=2)"))]


#: The section-cache benchmark's specs, with the md5 of the stdout of all
#: 11 `section` calls on an empty and then on the filled cache directory, and
#: of the cache files.  The section bytes were re-recorded when proofs went
#: block by block, which changed only the `pairs` of the multi-block specs;
#: both were re-recorded when each GL_r(F_p) got fixed generators, which
#: changed only the `generators` and `images` of certificates with a block
#: of rank >= 2.
PINNED_SPECS = ["-p 2 -b 2:2", "-p 2 -b 2:3", "-p 2 -b 3:2",
                "-p 2 -b 1:2 -b 2:2", "-p 2 -b 2:2 -b 4:1",
                "-p 2 -b 1:1 -b 2:3", "-p 2 -b 2:3 -b 4:1", "-p 3 -b 2:2",
                "-p 3 -b 3:2", "-p 3 -b 2:2 -b 4:1", "-p 3 -b 1:1 -b 2:2"]
PINNED_SECTION_MD5 = "69a53946057f207b675ba76ae9136ffe"
PINNED_CACHE_MD5 = "c8d2f435b915fa5a068fcf142e050f10"


def test_certificate_bytes_are_pinned(runner, tmp_path):
    cache = tmp_path / "cache"
    for _ in range(2):  # a cold and then a warm cache
        out = hashlib.md5()
        for args in PINNED_SPECS:
            res = runner.invoke(main, ["section", "--cache-dir", str(cache),
                                       *args.split()])
            assert res.exit_code == 0
            assert "warning" not in res.stderr
            out.update(res.stdout.encode())
        assert out.hexdigest() == PINNED_SECTION_MD5
    files = hashlib.md5()
    for path in sorted(cache.iterdir()):
        files.update(path.name.encode() + b"\n" + path.read_bytes())
    assert files.hexdigest() == PINNED_CACHE_MD5


#: md5 of the acceptance gate's sweep stdout (`batch --with-oracle
#: --budget-elems 4096 --budget-assignments 65536` on sweep50.jsonl), and of
#: the exit code and then stdout of `section` on each of the sweep's 32 Splits
#: rows with |Q| <= 5000, in file order.  The sweep bytes were recorded
#: before the block sections became maps written straight into the
#: certificate's rows; the section bytes were re-recorded when proofs went
#: block by block, which changed only the `pairs` of the multi-block rows,
#: and when each GL_r(F_p) got fixed generators, which changed only the
#: `generators` and `images` of the 12 rows with a block of rank >= 2
#: (row 30 exits 3 before printing).
PINNED_SWEEP_MD5 = "46ee9d6ac8442260b4628706940343ab"
PINNED_SWEEP_SECTIONS_MD5 = "f437986d00aa37e9037a50671acd2638"


def test_sweep_bytes_are_pinned(runner):
    res = runner.invoke(main, ["batch", str(SWEEP50_PATH), "--with-oracle",
                               "--budget-elems", "4096",
                               "--budget-assignments", "65536"])
    assert res.exit_code == 0
    assert hashlib.md5(res.stdout.encode()).hexdigest() == PINNED_SWEEP_MD5


def test_sweep_section_bytes_are_pinned(runner):
    out = hashlib.md5()
    calls = 0
    for line in SWEEP50_PATH.read_text().splitlines():
        spec = spec_from_json(json.loads(line))
        if classify(spec).outcome != "Splits" or pi_order(spec) > 5000:
            continue
        args = ["section", "-p", str(spec.p)]
        for n, r in spec.blocks:
            args += ["-b", f"{n}:{r}"]
        res = runner.invoke(main, args)
        out.update(str(res.exit_code).encode())
        out.update(res.stdout.encode())
        calls += 1
    assert calls == 32
    assert out.hexdigest() == PINNED_SWEEP_SECTIONS_MD5


class TestOracleCommands:
    def test_delta_count(self, runner):
        res = runner.invoke(main, ["oracle", "delta-count",
                                   "-p", "2", "-b", "1:1", "-b", "2:1"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["formula"] == obj["enumerated"] == 8

    def test_delta_count_budget(self, runner):
        res = runner.invoke(main, ["oracle", "delta-count",
                                   "-p", "2", "-b", "6:3",
                                   "--budget-elems", "100"])
        assert res.exit_code == EXIT_BUDGET

    def test_bijective_equiv(self, runner):
        res = runner.invoke(main, ["oracle", "bijective-equiv",
                                   "-p", "2", "-b", "2:2", "--samples", "50"])
        assert res.exit_code == 0
        assert json.loads(res.output)["disagreements"] == 0

    def test_obstruction(self, runner):
        res = runner.invoke(main, ["oracle", "obstruction",
                                   "-p", "5", "-b", "2:2"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["verdict"] == "NoOrderPLift"
        assert obj["coset_size"] == 625

    def test_obstruction_bounds_the_kernel_bytes(self, runner, monkeypatch):
        # (2; 4:3): |Delta| = 2^27 is within --budget-elems, but its 3 x 3
        # array would take 9.7 GB; the scan must stop before allocating it
        def never(*args, **kwargs):
            raise AssertionError("the kernel array was allocated")

        monkeypatch.setattr(oracle.np, "meshgrid", never)
        monkeypatch.setattr(oracle.np, "zeros", never)
        res = runner.invoke(main, ["oracle", "obstruction", "-p", "2", "-b",
                                   "4:3", "--budget-elems", str(2 ** 27)])
        assert res.exit_code == EXIT_BUDGET
        assert res.stderr == (f"budget exceeded: kernel array exceeds "
                              f"{oracle.KERNEL_BYTES} bytes\n")

    def test_complement_search(self, runner):
        res = runner.invoke(main, ["oracle", "complement-search",
                                   "-p", "2", "-b", "2:2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "Found"

    def test_complement_search_exhausted(self, runner):
        res = runner.invoke(main, ["oracle", "complement-search",
                                   "-p", "5", "-b", "2:2",
                                   "--no-pre-obstruction"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["verdict"] == "NotFound"
        assert obj["evidence"] == "exhausted"


def _write_jsonl(path, specs):
    lines = [json.dumps(s) for s in specs]
    path.write_text("\n".join(lines) + "\n")


class TestBatch:
    def test_json_rows(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [
            {"p": 5, "blocks": [{"n": 2, "r": 1}]},
            {"p": 5, "blocks": [{"n": 2, "r": 2}]},
        ])
        res = runner.invoke(main, ["batch", str(f)])
        assert res.exit_code == 0
        rows = [json.loads(ln) for ln in res.output.splitlines()]
        assert [r["outcome"] for r in rows] == ["Splits", "DoesNotSplit"]

    def test_with_oracle_agreement(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 5, "blocks": [{"n": 2, "r": 2}]}])
        res = runner.invoke(main, ["batch", str(f), "--with-oracle"])
        assert res.exit_code == 0
        row = json.loads(res.output.splitlines()[0])
        assert row["oracle"] == "NoOrderPLift"
        assert row["agreement"] is True

    def test_classifier_only_note(self, runner, tmp_path):
        spec = validate_spec(2, [(2, 4)])
        assert delta_order(spec) > 4096  # oracle skipped at this budget
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 2, "blocks": [{"n": 2, "r": 4}]}])
        res = runner.invoke(main, ["batch", str(f), "--with-oracle",
                                   "--budget-elems", "4096"])
        assert res.exit_code == 0
        row = json.loads(res.output.splitlines()[0])
        assert row["outcome"] == "DoesNotSplit"
        assert row["note"] == "classifier-only"

    def test_long_rank_one_block_is_proved(self, runner, tmp_path):
        # the multiplicative lift of 2 mod 3^20000, by Newton's iteration
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 3, "blocks": [{"n": 20000, "r": 1}]}])
        start = time.monotonic()
        res = runner.invoke(main, ["batch", str(f), "--with-oracle"])
        assert time.monotonic() - start < 10
        assert res.exit_code == 0
        row = json.loads(res.stdout)
        assert row["oracle"] == "SectionVerified"
        assert row["agreement"] is True

    def test_bad_line_stops_without_continue(self, runner, tmp_path,
                                             monkeypatch):
        # every line is parsed before the first cross-check
        searched = []
        monkeypatch.setattr(cli, "build_verified_section",
                            lambda *args, **kwargs: searched.append(args))
        f = tmp_path / "in.jsonl"
        f.write_text('{"p": 5, "blocks": [{"n": 2, "r": 1}]}\nnot json\n')
        res = runner.invoke(main, ["batch", str(f), "--with-oracle"])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("line 2: JSONDecodeError: ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""
        assert searched == []

    def test_continue_processes_rest(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_text('not json\n{"p": 5, "blocks": [{"n": 2, "r": 1}]}\n')
        res = runner.invoke(main, ["batch", str(f), "--continue"])
        assert res.exit_code == EXIT_INVALID  # error still reported at exit
        rows = [json.loads(ln) for ln in res.stdout.splitlines()]
        assert "error" in rows[0]
        assert rows[1]["outcome"] == "Splits"

    def test_continue_reports_non_integer_values(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [
            {"p": 5, "blocks": [{"n": "abc", "r": 1}]},
            {"p": 5, "blocks": [{"n": 2, "r": 1}]},
            {"p": 5, "blocks": [{"n": 2.7, "r": True}]},
        ])
        res = runner.invoke(main, ["batch", str(f), "--continue"])
        assert res.exit_code == EXIT_INVALID
        assert res.exception is None or isinstance(res.exception, SystemExit)
        errors = res.stderr.splitlines()
        assert errors[0].startswith("line 1: SpecError: ")
        assert errors[1].startswith("line 3: SpecError: ")
        rows = [json.loads(ln) for ln in res.stdout.splitlines()]
        assert [r["line"] for r in rows] == [1, 2, 3]
        assert "error" in rows[0] and "error" in rows[2]
        assert rows[1]["outcome"] == "Splits"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lines_past_the_parser_limits_are_error_rows(self, runner,
                                                         tmp_path, workers):
        good = json.dumps({"p": 5, "blocks": [{"n": 2, "r": 1}]})
        f = tmp_path / "in.jsonl"
        f.write_text("\n".join([good, TOO_DEEP, TOO_LONG, good]) + "\n")
        res = runner.invoke(main, ["batch", str(f), "--with-oracle",
                                   "--continue", "--workers", workers])
        assert res.exit_code == EXIT_INVALID
        assert res.exception is None or isinstance(res.exception, SystemExit)
        errors = res.stderr.splitlines()
        assert len(errors) == 2
        for lineno, (line, (_, error)) in enumerate(
                zip(errors, PARSER_LIMITS), 2):
            assert line.startswith(f"line {lineno}: {error}")
        rows = [json.loads(ln) for ln in res.stdout.splitlines()]
        assert [r["line"] for r in rows] == [1, 2, 3, 4]
        assert "error" in rows[1] and "error" in rows[2]
        for row in (rows[0], rows[3]):
            assert (row["outcome"], row["oracle"]) == ("Splits",
                                                       "SectionVerified")
        res = runner.invoke(main, ["batch", str(f), "--workers", workers])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith(f"line 2: {PARSER_LIMITS[0][1]}")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    @pytest.mark.parametrize("extra", [[], ["--continue"]],
                             ids=["stop", "continue"])
    def test_input_not_utf8(self, runner, tmp_path, extra):
        f = tmp_path / "in.jsonl"
        f.write_bytes(b'{"p": 5, "blocks": [{"n": 2, "r": 1}]}\n\xff\xfe\n')
        res = runner.invoke(main, ["batch", str(f), *extra])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("error: UnicodeDecodeError: ")
        assert res.stdout == ""

    def test_scan_past_the_kernel_bytes_is_classifier_only(self, runner,
                                                          tmp_path,
                                                          monkeypatch):
        # (2; 3:4) does not split; |Delta| = 2^32 is within --budget-elems,
        # but its 4 x 4 array would take 550 GB
        def never(*args, **kwargs):
            raise AssertionError("the kernel array was allocated")

        monkeypatch.setattr(oracle.np, "meshgrid", never)
        monkeypatch.setattr(oracle.np, "zeros", never)
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 2, "blocks": [{"n": 3, "r": 4}]}])
        res = runner.invoke(main, ["batch", str(f), "--with-oracle",
                                   "--budget-elems", str(2 ** 32)])
        assert res.exit_code == 0
        row = json.loads(res.stdout)
        assert (row["outcome"], row["oracle"], row["note"]) == (
            "DoesNotSplit", None, "classifier-only")

    @pytest.mark.parametrize("line,module,name,stage", [
        (1, splitting, "complement_lift_search", "section"),
        (2, oracle, "order_p_coset_obstruction", "obstruction"),
    ], ids=["section", "obstruction"])
    def test_cross_check_that_raises_is_an_error_row(
            self, runner, tmp_path, monkeypatch, line, module, name, stage):
        # one line per cross-check stage, Splits and DoesNotSplit, and an
        # Unknown line, which has none
        specs = [{"p": 2, "blocks": [{"n": 2, "r": 2}]},
                 {"p": 5, "blocks": [{"n": 2, "r": 2}]},
                 {"p": 2, "blocks": [{"n": 1, "r": 1}, {"n": 2, "r": 4}]}]
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, specs)
        args = ["batch", str(f), "--with-oracle"]
        splitting._searched_block.cache_clear()
        clean = runner.invoke(main, args)
        assert clean.exit_code == 0
        want = [json.loads(ln) for ln in clean.stdout.splitlines()]
        assert [r["outcome"] for r in want] == ["Splits", "DoesNotSplit",
                                                "Unknown"]

        real = getattr(module, name)
        bad = spec_from_json(specs[line - 1])

        def failing(spec, *rest, **kwargs):
            if spec == bad:
                raise RuntimeError("element order is not a small p-power")
            return real(spec, *rest, **kwargs)

        monkeypatch.setattr(module, name, failing)
        splitting._searched_block.cache_clear()
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.exception is None or isinstance(res.exception, SystemExit)
        error = f"{stage}: RuntimeError: element order is not a small p-power"
        assert res.stderr == f"line {line}: {error}\n"
        rows = [json.loads(ln) for ln in res.stdout.splitlines()]
        want[line - 1].update(oracle=None, agreement=None, error=error)
        want[line - 1].pop("note", None)
        assert rows == want

    def test_unknown_rows_search_nothing(self, runner, tmp_path, monkeypatch):
        # every Unknown spec with p in {2, 3}, up to 3 blocks, exponents and
        # ranks up to 5 has a kernel array past KERNEL_BYTES, so no lift
        # search could decide one, whatever --budget-elems allows
        unknown = []
        for p, k in itertools.product((2, 3), (1, 2, 3)):
            for ns in itertools.combinations(range(1, 6), k):
                for rs in itertools.product(range(1, 6), repeat=k):
                    spec = validate_spec(p, list(zip(ns, rs)))
                    if classify(spec).outcome == "Unknown":
                        unknown.append(spec)
                        assert (delta_order(spec) * spec.total_rank ** 2 * 8
                                > oracle.KERNEL_BYTES)
                        assert oracle.complement_lift_search(
                            spec, delta_budget=10 ** 100
                        ).outcome == "BudgetExceeded"
        assert {s.p for s in unknown} == {2, 3}

        def never(*args, **kwargs):
            raise AssertionError("an Unknown row was searched")

        monkeypatch.setattr(oracle, "complement_lift_search", never)
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 2, "blocks": [{"n": 1, "r": 1},
                                             {"n": 2, "r": 4}]}])
        res = runner.invoke(main, ["batch", str(f), "--with-oracle",
                                   "--budget-elems", str(10 ** 100)])
        assert res.exit_code == 0
        row = json.loads(res.stdout)
        assert (row["outcome"], row["oracle"], row["note"]) == (
            "Unknown", None, "classifier-only")

    def test_input_is_a_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["batch", str(tmp_path)])
        assert res.exit_code == EXIT_INVALID
        assert res.stderr.startswith("error: IsADirectoryError: ")

    def test_workers_print_the_same_bytes(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [
            {"p": 5, "blocks": [{"n": 2, "r": 2}]},
            {"p": 2, "blocks": [{"n": 2, "r": 2}]},
            {"p": 3, "blocks": [{"n": 1, "r": 1}, {"n": 2, "r": 2}]},
            {"p": 2, "blocks": [{"n": 1, "r": 1}, {"n": 2, "r": 1}]},
        ])
        args = ["batch", str(f), "--with-oracle"]
        serial = runner.invoke(main, args + ["--workers", "1"])
        parallel = runner.invoke(main, args + ["--workers", "2"])
        assert serial.exit_code == parallel.exit_code == 0
        assert len(serial.stdout.splitlines()) == 4
        assert parallel.stdout == serial.stdout

    def test_each_block_graph_walked_once(self, runner, monkeypatch):
        # every graph of the sweep is a per-block graph, and
        # each generating set of a GL_r(F_p) is walked by BFS at most once
        walked = Counter()
        bfs = endo.gl_bfs

        def counting(p, r, mats, cap):
            walked[(p, r, mats, cap)] += 1
            return bfs(p, r, mats, cap)

        monkeypatch.setattr(endo, "gl_bfs", counting)
        for memo in (endo.gl_span, oracle.find_generators_of_Q):
            memo.cache_clear()
        res = runner.invoke(main, ["batch", str(SWEEP50_PATH),
                                   "--with-oracle", "--budget-elems", "4096",
                                   "--budget-assignments", "65536"])
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == 50
        assert walked and max(walked.values()) == 1
        primes = {json.loads(line)["p"]
                  for line in SWEEP50_PATH.read_text().splitlines()}
        for p, r, generators, cap in walked:
            assert p in primes
            assert cap == gl_order(p, r)
            assert all(mx.shape(g) == (r, r) for g in generators)

    def test_each_block_searched_once(self, runner, monkeypatch):
        # rows that share a block share its search, once per assignment
        # budget; the proof of each row's section still runs
        searched = Counter()
        search = oracle.complement_lift_search

        def counting(spec, assignment_budget, **kwargs):
            searched[(spec, assignment_budget)] += 1
            return search(spec, assignment_budget=assignment_budget,
                          **kwargs)

        for module in (oracle, splitting):
            monkeypatch.setattr(module, "complement_lift_search", counting)
        splitting._searched_block.cache_clear()
        res = runner.invoke(main, ["batch", str(SWEEP50_PATH),
                                   "--with-oracle", "--budget-elems", "4096",
                                   "--budget-assignments", "65536"])
        assert res.exit_code == 0
        assert hashlib.md5(res.stdout.encode()).hexdigest() == PINNED_SWEEP_MD5
        assert searched and max(searched.values()) == 1

    @pytest.mark.parametrize("workers,cpus,expected", [
        (1000, 64, 4),  # no more workers than lines
        (1000, 3, 3),  # nor than CPUs
        (3, 64, 3),
        (1000, None, None),  # an unknown CPU count means one: no pool
        (1, 64, None),
    ])
    def test_workers_are_clamped(self, runner, tmp_path, monkeypatch,
                                 workers, cpus, expected):
        # the pool is faked: a real one starts all its processes at once
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 5, "blocks": [{"n": 2, "r": r}]}
                         for r in (1, 2, 3, 4)])
        res = runner.invoke(main, ["batch", str(f), "--workers",
                                   str(workers)])
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == 4
        assert started == ([] if expected is None else [expected])

    def test_csv_format(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_jsonl(f, [{"p": 3, "blocks": [{"n": 2, "r": 2}]}])
        res = runner.invoke(main, ["batch", str(f), "--format", "csv"])
        assert res.exit_code == 0
        header, row = res.output.splitlines()[:2]
        assert header.startswith("line,spec,outcome")
        assert "Splits" in row


class TestCache:
    def test_list_verify_clear(self, runner, tmp_path):
        cache = tmp_path / "cache"
        res = runner.invoke(main, ["section", "-p", "2", "-b", "2:2",
                                   "--cache-dir", str(cache)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["cache", "--cache-dir", str(cache), "list"])
        assert res.exit_code == 0
        assert "block-p2-n2-r2.json" in res.output
        res = runner.invoke(main, ["cache", "--cache-dir", str(cache),
                                   "verify"])
        assert res.exit_code == 0
        res = runner.invoke(main, ["cache", "--cache-dir", str(cache),
                                   "clear"])
        assert res.exit_code == 0
        assert not list(cache.glob("*.json"))

    def test_other_files_are_left_alone(self, runner, tmp_path):
        cache = tmp_path / "cache"
        res = runner.invoke(main, ["section", "-p", "2", "-b", "2:2",
                                   "--cache-dir", str(cache)])
        assert res.exit_code == 0
        notes = cache / "notes.json"
        notes.write_text("{}")
        base = ["cache", "--cache-dir", str(cache)]
        res = runner.invoke(main, base + ["list"])
        assert res.stdout == "block-p2-n2-r2.json\n"
        res = runner.invoke(main, base + ["verify"])
        assert res.exit_code == 0
        assert "notes.json" not in res.stdout
        res = runner.invoke(main, base + ["clear"])
        assert res.stdout == "removed 1 certificates\n"
        assert [p.name for p in cache.iterdir()] == ["notes.json"]

    def test_verify_fails_a_mislabeled_entry(self, runner, tmp_path):
        # a proved (3; 2:2) certificate, saved under the name of (2; 2:2)
        cert, _ = build_verified_section(validate_spec(3, [(2, 2)]))
        CertificateCache(tmp_path).store_block(2, 2, 2, cert)
        res = runner.invoke(main, ["cache", "--cache-dir", str(tmp_path),
                                   "verify"])
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.stdout == ("block-p2-n2-r2.json: FAILED (certificate is "
                              "not for block (p=2, n=2, r=2))\n")

    def test_verify_fails_other_generators(self, runner, tmp_path):
        cache = tmp_path / "cache"
        res = runner.invoke(main, ["section", "-p", "3", "-b", "2:2",
                                   "--cache-dir", str(cache)])
        assert res.exit_code == 0
        entry = cache / "block-p3-n2-r2.json"
        entry.write_text(_swap_generators(entry.read_text()))
        res = runner.invoke(main, ["cache", "--cache-dir", str(cache),
                                   "verify"])
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.stdout == ("block-p3-n2-r2.json: FAILED (generators are "
                              "not the block's fixed ones)\n")

    def test_verify_fails_an_entry_nested_too_deeply(self, runner, tmp_path):
        (tmp_path / "block-p2-n2-r2.json").write_text(TOO_DEEP)
        res = runner.invoke(main, ["cache", "--cache-dir", str(tmp_path),
                                   "verify"])
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.stdout.startswith("block-p2-n2-r2.json: FAILED (maximum "
                                     "recursion depth exceeded")
        assert len(res.stdout.splitlines()) == 1

    def test_verify_bounds_the_quotient_before_any_graph(self, runner,
                                                         tmp_path,
                                                         monkeypatch):
        # |GL_3(F_101)| is about 10^18: the proof must fail on the size
        # alone, not walk the generators' graph up to that cap
        def never(*args):
            pytest.fail("a graph was built for an oversized quotient")

        monkeypatch.setattr(endo, "gl_span", never)
        gens = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 0, 2], [1, 0, 0], [0, 1, 0]]]
        (tmp_path / "block-p101-n2-r3.json").write_text(json.dumps({
            "spec": {"p": 101, "blocks": [{"n": 2, "r": 3}]},
            "generators": [[g] for g in gens],
            "images": [{"cells": [[g]]} for g in gens]}))
        res = runner.invoke(main, ["cache", "--cache-dir", str(tmp_path),
                                   "verify"])
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.stdout == (
            f"block-p101-n2-r3.json: FAILED (a block of the quotient has "
            f"{gl_order(101, 3)} elements, more than the 1048576 a proof "
            f"may walk)\n")

    @staticmethod
    def _count_proofs(monkeypatch) -> list:
        """The spec of each `verify_section` call, from either module."""
        specs = []
        real = splitting.verify_section

        def counted(cert, *args, **kwargs):
            specs.append(cert.spec)
            return real(cert, *args, **kwargs)

        monkeypatch.setattr(splitting, "verify_section", counted)
        monkeypatch.setattr(autsplit.cache, "verify_section", counted)
        return specs

    def test_one_proof_per_section_on_a_filled_cache(self, runner, tmp_path,
                                                     monkeypatch):
        # a cached block is proved inside its section, not again at load
        cache = tmp_path / "cache"
        for args in PINNED_SPECS:
            assert runner.invoke(main, ["section", "--cache-dir", str(cache),
                                        *args.split()]).exit_code == 0
        specs = self._count_proofs(monkeypatch)
        for args in PINNED_SPECS:
            specs.clear()
            res = runner.invoke(main, ["section", "--cache-dir", str(cache),
                                       *args.split()])
            assert res.exit_code == 0
            assert "warning" not in res.stderr
            assert len(specs) == 1, args

    def test_verify_proves_each_entry_once(self, runner, tmp_path,
                                           monkeypatch):
        cache = tmp_path / "cache"
        for args in PINNED_SPECS:
            assert runner.invoke(main, ["section", "--cache-dir", str(cache),
                                        *args.split()]).exit_code == 0
        entries = CertificateCache(cache).entries()
        specs = self._count_proofs(monkeypatch)
        res = runner.invoke(main, ["cache", "--cache-dir", str(cache),
                                   "verify"])
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == len(entries) == 5
        assert sorted(f"block-p{s.p}-n{s.exponents[0]}-r{s.ranks[0]}.json"
                      for s in specs) == [path.name for path in entries]

    @pytest.mark.parametrize("filled", [False, True], ids=["cold", "filled"])
    def test_failure_the_cache_did_not_cause_exits_4(self, runner, tmp_path,
                                                     monkeypatch, filled):
        # each entry proves alone, but the section of two blocks fails: the
        # recheck blames no entry, and the failure is raised, not retried
        args = ["section", "-p", "2", "-b", "1:2", "-b", "2:2",
                "--cache-dir", str(tmp_path)]
        if filled:
            assert runner.invoke(main, args).exit_code == 0
        real = splitting.extend_by_blocks

        def fails_on_two_blocks(moves, graphs, images, lay):
            return None if len(graphs) > 1 else real(moves, graphs, images,
                                                     lay)

        built = []
        real_block = splitting.block_section

        def counted(p, n, r, **kwargs):
            built.append((p, n, r))
            return real_block(p, n, r, **kwargs)

        monkeypatch.setattr(splitting, "extend_by_blocks", fails_on_two_blocks)
        monkeypatch.setattr(splitting, "block_section", counted)
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_VERIFY_FAILED
        assert res.stderr == ("verification failed (bug signal): generator "
                              "images are inconsistent\n")
        assert built.count((2, 2, 2)) <= 2
