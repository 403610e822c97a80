import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest_diff.py"


def test_a_bad_call_exits_2_with_a_message():
    # no revision, two revisions, and a name that is no revision: each exits
    # before any digest runs
    for args in ([], ["HEAD", "HEAD"], ["no-such-revision"]):
        done = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                              text=True)
        assert done.returncode == 2, args
        assert done.stderr and not done.stdout, args
