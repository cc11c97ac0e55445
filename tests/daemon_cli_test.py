#!/usr/bin/env python3
"""Runs the real stpes-serve and stpes-route binaries on their command
lines: usage errors, the transport choice, and one pipe-mode session.

Usage: daemon_cli_test.py STPES_SERVE STPES_ROUTE

Usage errors must exit 2 with the reason on stderr; a runtime failure
(an unusable backend) must exit 1.  Exit code 0 when every case behaves.
"""

import subprocess
import sys

SERVE, ROUTE = sys.argv[1], sys.argv[2]
TWO_TRANSPORTS = "pick exactly one of --socket, --listen, --pipe"


def run(binary, *args, stdin=""):
    """Runs `binary args` to completion; returns (code, stdout, stderr)."""
    proc = subprocess.run([binary, *args], input=stdin, capture_output=True,
                          text=True, timeout=60, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    failures = []

    def expect(case, result, code, stderr_has="", stdout_has=""):
        got, out, err = result
        ok = got == code and stderr_has in err and stdout_has in out
        print(f"{'ok  ' if ok else 'FAIL'} {case}")
        if not ok:
            print(f"     exit {got} (want {code})\n     stdout: {out!r}\n"
                  f"     stderr: {err!r}")
            failures.append(case)

    for name, binary, extra in (("stpes-serve", SERVE, []),
                                ("stpes-route", ROUTE,
                                 ["--backend=127.0.0.1:1"])):
        expect(f"{name}: unknown flag is a usage error",
               run(binary, "--bogus"), 2,
               stderr_has="unknown argument '--bogus'")
        expect(f"{name}: two transports are a usage error",
               run(binary, "--pipe", "--listen=127.0.0.1:0", *extra), 2,
               stderr_has=TWO_TRANSPORTS)

    expect("stpes-serve: a malformed number is a usage error",
           run(SERVE, "--pipe", "--threads=many"), 2,
           stderr_has="--threads wants a non-negative integer, got 'many'")
    expect("stpes-route: an out-of-range number is a usage error",
           run(ROUTE, "--pipe", "--backend=127.0.0.1:1",
               "--vnodes=99999999999"), 2,
           stderr_has="--vnodes value 99999999999 exceeds")
    expect("stpes-serve --pipe answers PING and exits 0 on QUIT",
           run(SERVE, "--pipe", "--threads=1", stdin="PING\nQUIT\n"), 0,
           stdout_has="OK pong", stderr_has="drained, exiting")
    expect("stpes-route --pipe with an empty socket path exits 1",
           run(ROUTE, "--pipe", "--backend=unix:"), 1,
           stderr_has="bad endpoint 'unix:'")

    print(f"{len(failures)} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
