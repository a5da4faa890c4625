"""Untrusted input, fuzzed: spec JSON, certificates and cache files.

A spec or a certificate read from outside the program either parses into
values of the right types or raises an AutSplitError; a bad cache file is a
miss with one warning, when it is loaded or when the section it goes into
fails its proof.  Runs are derandomized, so every run draws the same
inputs.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.cache import CertificateCache
from autsplit.errors import AutSplitError, SpecError
from autsplit.groups import PGroupSpec, pi_order, spec_from_json, validate_spec
from autsplit.splitting import (
    SectionCertificate,
    build_verified_section,
    verify_section,
)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=400)

# Integers stay small: a large exponent is a valid spec whose moduli alone
# take long to compute, which is not what these tests look for.
LEAVES = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
          | st.text(max_size=3))
JSON = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=8)

SPEC_LIKE = st.fixed_dictionaries({
    "p": st.sampled_from([2, 3, 5]) | st.integers() | JSON,
    "blocks": st.lists(st.fixed_dictionaries({"n": JSON, "r": JSON}) | JSON,
                       max_size=3),
})


@FUZZ
@given(JSON | SPEC_LIKE)
def test_spec_from_json_returns_a_spec_or_raises_spec_error(obj):
    try:
        spec = spec_from_json(obj)
    except SpecError:
        return
    assert isinstance(spec, PGroupSpec)
    assert all(type(x) is int for x in (spec.p, *spec.exponents, *spec.ranks))


# --- single-field mutations of a valid certificate ---

DELETE = object()


def _paths(obj, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(data, obj):
    """obj with one node replaced by a drawn JSON value, or deleted."""
    paths = list(_paths(obj))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    value = data.draw(st.just(DELETE) | JSON)
    if not path:
        return None if value is DELETE else value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _all_ints(x) -> bool:
    if isinstance(x, list):
        return all(_all_ints(y) for y in x)
    return type(x) is int


CERT = build_verified_section(validate_spec(2, [(1, 1), (2, 2)]))[0].to_json()
BLOCK = validate_spec(2, [(2, 2)])
BLOCK_CERT = build_verified_section(BLOCK)[0].to_json()


@FUZZ
@given(st.data())
def test_mutated_certificate_raises_or_holds_ints(data):
    obj = _mutated(data, CERT)
    try:
        cert = SectionCertificate.from_json(obj)
        verify_section(cert)
    except AutSplitError:
        return
    out = cert.to_json()
    assert _all_ints(out["generators"])
    assert _all_ints([img["cells"] for img in out["images"]])


WARNING = "warning: ignoring cache entry block-p2-n2-r2.json: "


@FUZZ
@given(st.data())
def test_load_block_of_a_mutated_file_is_a_miss_or_proven(data):
    # a load does not prove the entry, the section it goes into does: a
    # mutated entry is a miss at load, or the section built on it is proved,
    # with at most one warning, and leaves a proven entry on disk
    text = json.dumps(_mutated(data, BLOCK_CERT))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        entry = Path(directory) / "block-p2-n2-r2.json"
        entry.write_text(text)
        cache = CertificateCache(directory)
        with redirect_stderr(err):
            got = cache.load_block(2, 2, 2)
        if got is None:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(WARNING)
            return
        assert err.getvalue() == ""
        out = got.to_json()
        assert _all_ints(out["generators"])
        assert _all_ints([img["cells"] for img in out["images"]])
        assert got.spec == BLOCK
        with redirect_stderr(err):
            cert, report = build_verified_section(BLOCK, cache=cache)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1
        assert all(line.startswith(WARNING) for line in lines)
        assert report.ok
        assert report.pairs_checked == pi_order(BLOCK) * len(cert.generators)
        assert verify_section(cert).ok
        assert CertificateCache(directory).verify_all() == [
            (entry.name, True, f"{report.pairs_checked} edges")]
        stored = SectionCertificate.from_json(json.loads(entry.read_text()))
        assert stored.images == cert.images
