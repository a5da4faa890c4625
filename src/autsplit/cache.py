"""Certificate cache.

One JSON file per searched block section, named `block-p<p>-n<n>-r<r>.json`
after its block; elementary and rank-1 blocks have closed-form sections and
are never stored, and files with other names are not the cache's.  The cache
is advisory: deleting it never changes verdicts, only how long the next
section construction takes, and a write that fails costs a warning on stderr.

Loading an entry (`load_block`) reads the file, compares its stored spec
with the block its name gives before anything is parsed, parses it, and
checks that its generators are the block's fixed ones, which every spec
shares (`oracle.find_generators_of_Q`).  It does not prove the entry: the
entry's images go into a section whose certificate is proved as a whole
(`splitting.build_verified_section`).  Only when that proof fails is each
loaded entry proved alone (`recheck`), to find the one at fault.  An entry
that fails a check is a miss: a one-line warning goes to stderr, and the
caller searches the block again and rewrites the entry.  `verify_all`,
behind `cache verify`, gives every entry the complete proof on its own
(`verify_section`), and then the same generator check.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

from .errors import BAD_INPUT, AutSplitError, VerificationFailed
from .groups import PGroupSpec, spec_to_json, validate_spec
from .oracle import find_generators_of_Q
from .splitting import SectionCertificate, verify_section

#: What reading, parsing or proving an untrusted cache file can raise.
_BAD_ENTRY = (*BAD_INPUT, AutSplitError)

#: The name of the entry for block (p, n, r).
_ENTRY_NAME = re.compile(r"block-p([1-9]\d*)-n([1-9]\d*)-r([1-9]\d*)\.json")


def _parse(path: Path) -> SectionCertificate:
    """The certificate at path, unproved, if it is for the block it names.

    Raises one of `_BAD_ENTRY` when the file cannot be read or parsed, or
    holds a certificate of another spec.
    """
    p, n, r = map(int, _ENTRY_NAME.fullmatch(path.name).groups())
    obj = json.loads(path.read_text(encoding="utf-8"))
    # the stored spec is compared before anything is parsed: a corrupted
    # exponent must not cost a computation of p^n
    if (not isinstance(obj, dict)
            or obj.get("spec") != spec_to_json(validate_spec(p, [(n, r)]))):
        raise VerificationFailed(
            f"certificate is not for block (p={p}, n={n}, r={r})")
    return SectionCertificate.from_json(obj)


def _check_generators(cert: SectionCertificate) -> None:
    if cert.generators != find_generators_of_Q(cert.spec):
        raise VerificationFailed("generators are not the block's fixed ones")


def _warn_ignored(name: str, exc: Exception) -> None:
    print(f"warning: ignoring cache entry {name}: "
          f"{type(exc).__name__}: {exc}", file=sys.stderr)


class CertificateCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        # the certificates `load_block` returned, and the blocks whose entry
        # `recheck` found bad, which are misses until it is rewritten
        self._loaded: dict[tuple[int, int, int], SectionCertificate] = {}
        self._bad: set[tuple[int, int, int]] = set()

    def _block_path(self, p: int, n: int, r: int) -> Path:
        return self.directory / f"block-p{p}-n{n}-r{r}.json"

    def load_block(self, p: int, n: int, r: int) -> SectionCertificate | None:
        """The cached certificate for block (p, n, r), unproved.

        None on a miss: no entry, one that fails to read or parse, is for
        another block or on other generators, or one that `recheck` found
        bad and that has not been rewritten since.
        """
        path = self._block_path(p, n, r)
        if (p, n, r) in self._bad or not path.exists():
            return None
        try:
            cert = _parse(path)
            _check_generators(cert)
        except _BAD_ENTRY as exc:
            _warn_ignored(path.name, exc)
            return None
        self._loaded[p, n, r] = cert
        return cert

    def recheck(self, spec: PGroupSpec) -> bool:
        """Prove each entry loaded for a block of spec alone; True if one fails.

        The section that holds the entries failed its proof.  A failing
        entry gets the warning of a miss and is a miss until it is
        rewritten; if none fails, the cache did not cause the failure.
        """
        failed = False
        for n, r in spec.blocks:
            cert = self._loaded.pop((spec.p, n, r), None)
            if cert is None:
                continue
            try:
                verify_section(cert)
            except VerificationFailed as exc:
                _warn_ignored(self._block_path(spec.p, n, r).name, exc)
                self._bad.add((spec.p, n, r))
                failed = True
        return failed

    def store_block(self, p: int, n: int, r: int,
                    cert: SectionCertificate) -> Path | None:
        """Write the entry atomically: a temporary file, then a rename.

        None, after a warning on stderr, when the entry cannot be written.
        """
        path = self._block_path(p, n, r)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                tmp.write_text(json.dumps(cert.to_json(), sort_keys=True,
                                          indent=1), encoding="utf-8")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        except OSError as exc:
            print(f"warning: cannot write cache entry {path.name}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self._bad.discard((p, n, r))
        return path

    def entries(self) -> list[Path]:
        """The entry files, sorted; files with other names are left out."""
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.iterdir()
                      if _ENTRY_NAME.fullmatch(path.name))

    def verify_all(self) -> list[tuple[str, bool, str]]:
        """Prove every entry alone, in full; (name, ok, detail) rows.

        The proof runs before the generator check, so an entry for a block
        too large to walk fails on its size alone.
        """
        rows = []
        for path in self.entries():
            try:
                cert = _parse(path)
                report = verify_section(cert)  # which first bounds its size
                _check_generators(cert)
                rows.append((path.name, True, f"{report.pairs_checked} edges"))
            except _BAD_ENTRY as exc:
                rows.append((path.name, False, str(exc)))
        return rows

    def clear(self) -> int:
        count = 0
        for path in self.entries():
            path.unlink()
            count += 1
        return count
