"""Run one command; report its wall time, exit code and peak RSS.

    python3 -S perfbench/launcher.py OUT ERR PROGRAM [ARG ...]

The command's stdout goes to the file OUT and its stderr to ERR.  This
process then prints one line: "<wall seconds> <exit code> <peak RSS KiB>".

A process's peak RSS as wait4 reports it includes the memory of the process
it was spawned from, because exec records the old image's high-water mark.
run.py holds more memory than a small qdiv run, so every job
is spawned from this launcher instead: started with -S and importing only
built-in modules, it stays below any qdiv run.  PROGRAM must be a path.
"""

import os
import sys
import time


def main() -> None:
    out, err, *command = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")


if __name__ == "__main__":
    main()
