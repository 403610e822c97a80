#!/usr/bin/env python3
"""Compare the outputs of this checkout with those of a git revision.

Usage (from any directory):
    python scripts/digest_diff.py REV

Extracts REV with ``git archive`` into a temporary directory, copies this
checkout's ``scripts/output_digest.py`` into it, and runs that script there
and here, each into a directory of its own.  Every file that differs between
the two, or that only one of them holds, is printed as its path relative to
the output directory.  The exit status is 1 on a difference and 0 on none;
the temporary directory is removed, and no git worktree is made.  Both
checkouts' outputs are the ones ``output_digest.py`` documents, with
``lebesgue_points.txt`` measuring work, not output.
"""

import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path("scripts") / "output_digest.py"


def _digest(checkout: Path, out: Path) -> None:
    subprocess.run([sys.executable, str(checkout / DIGEST), str(out)], check=True)


def _files(out: Path) -> dict:
    """{path relative to out: bytes} of every file under out."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]],
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        shutil.copyfile(ROOT / DIGEST, tmp / "rev" / DIGEST)
        _digest(tmp / "rev", tmp / "rev_out")
        _digest(ROOT, tmp / "out")
        old, new = _files(tmp / "rev_out"), _files(tmp / "out")
    differ = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
