#!/usr/bin/env python3
"""Run one workload of the Voltron benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload suite-4c --seed 1 --seconds 12 --trace 0

Builds perfbench/main.exe from the checkout's sources with dune, runs it
with the given arguments and exits with its exit code. The last line
main.exe prints on standard output is the result object; everything the
build prints goes to standard error. See perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(argv, timeout, **kwargs):
    """Run argv in its own process group; on timeout kill the whole group.

    Returns the exit code, or None when the command timed out or could
    not start."""
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, **kwargs)
    except OSError as e:
        print(f"perfbench: cannot run {argv[0]}: {e}", file=sys.stderr)
        return None
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Without the OCaml switch on PATH, let opam set up its environment.
    prefix = ["opam", "exec", "--"] if not shutil.which("dune") and shutil.which("opam") else []
    code = run(prefix + ["dune", "build", "--root", ".", "./perfbench/main.exe"],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    code = run([EXE, *sys.argv[1:]], RUN_TIMEOUT_S)
    return 3 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
