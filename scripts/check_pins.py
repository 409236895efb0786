#!/usr/bin/env python3
"""Check the pinned command-line outputs against their recorded sha256.

Each pin runs in a fresh process, once with --threads 1 and once with
--threads 2, against the src/ next to this script, with RESIST_CACHE_DIR
unset, so no cache is read or written. Each pin whose command takes
--cache-dir then runs twice more with --threads 2 against one fresh
temporary cache directory: cold, writing the caches, then warm, reading
them. A run passes when the command exits 0 and the sha256 of its stdout
is the recorded one. Prints one line per run and exits 1 if any run fails.
The n=9 pins make it take minutes on two cores, so it stays out of the
test suite.

    python3 scripts/check_pins.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINS = (
    (("enumerate", "8"),
     "47fbec3f2ba835faf71994ab8a9389aa3d9822cd36515f028c042a4dc003b936"),
    (("enumerate", "9"),
     "3cdc62d49844b4cf749f00e74b7eab43825985e586939969b702ba416cb7fdd0"),
    (("verify-drs", "--all", "--max-n", "9"),
     "26fdea3e935723f5f39c1ada813796d5fa83c417d753ab42bf0ad8af28db458e"),
    (("collisions", "9"),
     "ba897729d0ae00ad676738481914c8a918fe25e594b37b354d6fc37f977fe75d"),
    (("check-lemmas", "--max-n", "7", "--output", "json"),
     "6f86235f5aab27b80ac0cebfdc73588226f8da03db09da855b086f233b0f3692"),
    (("verify-drs", "--all", "--max-n", "7", "--output", "json"),
     "1f7c6887ce790860f18f991b7715c4ed6704187c6922d986c0477c262b28f643"),
    (("collisions", "7", "--output", "json"),
     "ff2069013aebd88e4b1e50c7d5c8329987a784b70e68530c3f1ddd9ced8bd3a8"),
)


def _check(env: dict, argv: list[str], want: str, shown: str) -> bool:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "resspec.cli", *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE,
    )
    got = hashlib.sha256(proc.stdout).hexdigest()
    ok = proc.returncode == 0 and got == want
    print(f"{'ok' if ok else 'FAIL'}  {shown}  exit {proc.returncode}"
          f"  sha256 {got}  {time.perf_counter() - start:.1f} s", flush=True)
    return ok


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("RESIST_CACHE_DIR", None)
    failed = 0
    for args, want in PINS:
        for threads in ("1", "2"):
            argv = [*args, "--threads", threads]
            failed += not _check(env, argv, want, " ".join(argv))
        if args[0] == "check-lemmas":  # the one pinned command with no --cache-dir
            continue
        with tempfile.TemporaryDirectory() as cache:
            for state in ("cold", "warm"):
                argv = [*args, "--threads", "2", "--cache-dir", cache]
                failed += not _check(env, argv, want, " ".join([*argv[:-1], f"({state})"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
