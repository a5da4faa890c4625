"""Certificate cache.

One JSON file per searched block section, keyed by (p, n, r); elementary and
rank-1 blocks have closed-form sections and are never stored.  The cache is
advisory: deleting it never changes verdicts, only how long the next section
construction takes.  Every load runs the complete section proof
(`verify_section`), after the stored spec has been compared with the
block's.  An entry that cannot be read, parsed or proved for its block counts
as a miss: a one-line warning goes to stderr, and the caller searches the
block again and rewrites the entry.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .errors import AutSplitError, VerificationFailed
from .groups import spec_to_json, validate_spec
from .splitting import SectionCertificate, VerificationReport, verify_section

#: What reading, parsing or proving an untrusted cache file can raise.
_BAD_ENTRY = (OSError, ValueError, AutSplitError)


def _read(path: Path) -> SectionCertificate:
    return SectionCertificate.from_json(json.loads(path.read_text()))


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
            obj = json.loads(path.read_text())
            # the stored spec is compared before anything is parsed: a
            # corrupted exponent must not cost a computation of p^n
            if (not isinstance(obj, dict)
                    or obj.get("spec") != spec_to_json(
                        validate_spec(p, [(n, r)]))):
                raise VerificationFailed(
                    f"certificate is not for block (p={p}, n={n}, r={r})")
            cert = SectionCertificate.from_json(obj)
            return cert, verify_section(cert)
        except _BAD_ENTRY as exc:
            print(f"warning: ignoring cache entry {path.name}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def store_block(self, p: int, n: int, r: int,
                    cert: SectionCertificate) -> Path:
        """Write the entry atomically: a temporary file, then a rename."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._block_path(p, n, r)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(cert.to_json(), sort_keys=True, indent=1))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def entries(self) -> list[Path]:
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob("*.json"))

    def verify_all(self) -> list[tuple[str, bool, str]]:
        """Re-verify every cached certificate; (name, ok, detail) rows."""
        rows = []
        for path in self.entries():
            try:
                report = verify_section(_read(path))
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
