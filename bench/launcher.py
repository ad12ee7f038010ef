"""Spawn benchmark child processes from a process that stays small.

On Linux a process's ``ru_maxrss`` includes the high-water RSS of the
address space it was exec'ed from, so a child spawned straight from the
harness would report the harness's own peak.  The harness starts this
launcher before it does any work.  It reads one JSON request per line on
stdin (``argv``, ``env``, ``cwd``, ``log``), runs the command to exit with
stdout and stderr going to ``log``, and answers with one JSON line:
``wall_s`` (exec to exit), ``maxrss_kb`` (the child's own rusage from
``os.wait4``) and ``exit``.  It exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall_s, "maxrss_kb": usage.ru_maxrss, "exit": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
