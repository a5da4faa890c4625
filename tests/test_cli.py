"""Command-line interface, driven through click's test runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import autsplit
from autsplit.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_SPLIT,
    main,
)
from autsplit.groups import delta_order, validate_spec
from autsplit.splitting import (
    SectionCertificate,
    build_verified_section,
    verify_section,
)


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
    ], ids=["truncated", "not-json", "fails-proof", "other-block",
            "float-entries"])
    def test_bad_cache_entry_is_a_miss(self, runner, tmp_path, corrupt):
        cache = tmp_path / "cache"
        args = ["section", "-p", "2", "-b", "2:2", "--cache-dir", str(cache)]
        assert runner.invoke(main, args).exit_code == 0
        entry = cache / "block-p2-n2-r2.json"
        good = entry.read_text()
        bad = corrupt(good)
        assert bad != good
        entry.write_text(bad)
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stderr.count("warning: ignoring cache entry") == 1
        assert entry.read_text() == good  # rewritten, with int entries
        cert = SectionCertificate.from_json(json.loads(entry.read_text()))
        assert cert.spec == validate_spec(2, [(2, 2)])
        assert verify_section(cert).ok
        assert [p.name for p in cache.iterdir()] == [entry.name]


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

    def test_bad_line_stops_without_continue(self, runner, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_text('{"p": 5, "blocks": [{"n": 2, "r": 1}]}\nnot json\n')
        res = runner.invoke(main, ["batch", str(f)])
        assert res.exit_code == EXIT_INVALID

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
