"""Start and reap the product's child processes from a small process.

Linux carries a process's resident-set high-water mark across
``exec``, so a child forked from the benchmark process would report the
benchmark's own peak (hundreds of MiB of generated inputs) as its
``ru_maxrss``. The benchmark therefore starts this stdlib-only helper
first, while it is still small, and has it spawn every product child:
each child's reported peak is then its own.

Protocol: one JSON object per line. Requests on stdin::

    {"op": "spawn", "id": 1, "cmd": [...], "env": {...}, "cwd": "...", "log": "..."}
    {"op": "signal", "pid": 1234, "sig": 2}

Messages on stdout::

    {"id": 1, "pid": 1234, "started": <perf_counter>}
    {"exit": 1234, "code": 0, "rss_mib": 81.5, "ended": <perf_counter>}

When stdin closes, every child still running is killed and reaped.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    lock = threading.Lock()
    spawned = threading.Semaphore(0)
    live = {}

    def say(message) -> None:
        with lock:
            sys.stdout.write(json.dumps(message) + "\n")
            sys.stdout.flush()

    def reap() -> None:
        while True:
            spawned.acquire()
            pid, status, usage = os.wait4(-1, 0)
            ended = time.perf_counter()
            code = os.waitstatus_to_exitcode(status)
            with lock:
                # Registered before this wait could return (see spawn), and
                # marked reaped so Popen never waits on a recycled pid.
                live.pop(pid).returncode = code
            say({"exit": pid, "code": code,
                 "rss_mib": usage.ru_maxrss / 1024.0, "ended": ended})

    threading.Thread(target=reap, daemon=True).start()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "spawn":
            with lock, open(request["log"], "wb") as log:
                started = time.perf_counter()
                proc = subprocess.Popen(
                    request["cmd"], stdout=log, stderr=subprocess.STDOUT,
                    env=request["env"], cwd=request["cwd"],
                )
                live[proc.pid] = proc
            spawned.release()
            say({"id": request["id"], "pid": proc.pid, "started": started})
        elif request["op"] == "signal":
            os.kill(request["pid"], request["sig"])
    with lock:
        remaining = list(live)
    for pid in remaining:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with lock:
            if not live:
                break
        time.sleep(0.01)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
