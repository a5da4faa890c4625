"""Certificate cache.

One JSON file per searched block section, named `block-p<p>-n<n>-r<r>.json`
after its block; elementary and rank-1 blocks have closed-form sections and
are never stored, and files with other names are not the cache's.  The cache
is advisory: deleting it never changes verdicts, only how long the next
section construction takes, and a write that fails costs a warning on stderr.

Loading an entry (`load_block`) and re-verifying the whole cache
(`verify_all`, behind `cache verify`) go through one path: read the file,
compare its stored spec with the block its name gives before anything is
parsed, parse, run the complete section proof (`verify_section`), and
check that its generators are the block's fixed ones, which every spec
shares (`oracle.find_generators_of_Q`).  An entry that fails any step is a
miss for a load: a one-line warning goes to stderr, and the caller searches
the block again and rewrites the entry.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

from .errors import BAD_INPUT, AutSplitError, VerificationFailed
from .groups import spec_to_json, validate_spec
from .oracle import find_generators_of_Q
from .splitting import SectionCertificate, VerificationReport, verify_section

#: What reading, parsing or proving an untrusted cache file can raise.
_BAD_ENTRY = (*BAD_INPUT, AutSplitError)

#: The name of the entry for block (p, n, r).
_ENTRY_NAME = re.compile(r"block-p([1-9]\d*)-n([1-9]\d*)-r([1-9]\d*)\.json")


def _load(path: Path) -> tuple[SectionCertificate, VerificationReport]:
    """The certificate at path and its fresh proof, for the block it names.

    Raises one of `_BAD_ENTRY` when the file cannot be read or parsed, or
    holds no proved section of that block on its fixed generators.
    """
    p, n, r = map(int, _ENTRY_NAME.fullmatch(path.name).groups())
    obj = json.loads(path.read_text(encoding="utf-8"))
    # the stored spec is compared before anything is parsed: a corrupted
    # exponent must not cost a computation of p^n
    if (not isinstance(obj, dict)
            or obj.get("spec") != spec_to_json(validate_spec(p, [(n, r)]))):
        raise VerificationFailed(
            f"certificate is not for block (p={p}, n={n}, r={r})")
    cert = SectionCertificate.from_json(obj)
    report = verify_section(cert)  # which first bounds the block's size
    if cert.generators != find_generators_of_Q(cert.spec):
        raise VerificationFailed("generators are not the block's fixed ones")
    return cert, report


class CertificateCache:
    def __init__(self, directory):
        self.directory = Path(directory)

    def _block_path(self, p: int, n: int, r: int) -> Path:
        return self.directory / f"block-p{p}-n{n}-r{r}.json"

    def load_block(self, p: int, n: int, r: int
                   ) -> tuple[SectionCertificate, VerificationReport] | None:
        """The cached certificate for block (p, n, r) and its fresh proof.

        None on a miss: no entry, or one that fails to read, parse or prove.
        """
        path = self._block_path(p, n, r)
        if not path.exists():
            return None
        try:
            return _load(path)
        except _BAD_ENTRY as exc:
            print(f"warning: ignoring cache entry {path.name}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None

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
        return path

    def entries(self) -> list[Path]:
        """The entry files, sorted; files with other names are left out."""
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.iterdir()
                      if _ENTRY_NAME.fullmatch(path.name))

    def verify_all(self) -> list[tuple[str, bool, str]]:
        """Load every entry as `load_block` does; (name, ok, detail) rows."""
        rows = []
        for path in self.entries():
            try:
                _, report = _load(path)
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
