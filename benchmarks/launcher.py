"""Run ``bvcouple`` CLI commands, each in its own process, and time them.

Usage: python3 launcher.py TRACE

Imports ``bvcouple.cli`` and prints one JSON line with ``import_s``, the
time the import took. Then, for each line on standard input, a JSON object
with ``args`` (the command's arguments), ``log`` and ``result`` (two file
paths), it forks a child that runs the command once through
``speed.bracketed``, its output going to ``log`` and the tracer installed
when TRACE is 1. So every command starts from a freshly imported package,
as from the shell, without paying for process start and import again. The
child writes to ``result`` its ``exit_code``, ``command_s`` and
``command_scaled_s`` (the wall time of ``bvcouple.cli.main`` and that time
at reference speed) and ``spans`` (the spans of a traced run, else empty);
once it has ended, the launcher prints one JSON line with its exit code.
At the end of its input the launcher exits 0.
"""
from __future__ import annotations

import json
import os
import sys
import time

from speed import bracketed
from tracing import Tracer


def run_child(cli, request: dict, traced: bool) -> int:
    log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    tracer = Tracer()
    if traced:
        tracer.install()
    code, command_s, command_scaled_s = bracketed(cli.main, request["args"])
    tracer.uninstall()
    with open(request["result"], "w") as fh:
        json.dump({"exit_code": code, "command_s": command_s, "command_scaled_s": command_scaled_s,
                   "spans": tracer.spans}, fh)
    return code


def main(argv: list[str]) -> int:
    traced = argv[0] == "1"
    t0 = time.perf_counter()
    import bvcouple.cli
    import_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = run_child(bvcouple.cli, request, traced)
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"exit_code": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
