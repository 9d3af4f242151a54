"""Spawn the benchmark's CLI calls one at a time and report their resource use.

    python3 bench/launcher.py    (started by harness.Client; reads requests on stdin)

On Linux a child's ru_maxrss starts at the peak RSS of the process that
spawned it.  The benchmark process grows during a run, so every call is
spawned from this small, long-lived process instead, and a call's peak
RSS is its own unless it is below this process's peak.

Each request is one JSON line ``[argv, stdout_path, stderr_path, timeout_s]``;
the reply is one JSON line ``[wall_s, exit_code, cpu_s, maxrss_kb, timed_out]``.
An empty argv asks for this process's own peak RSS: ``[hwm_kb]``.  The
launcher exits at the end of its input; SIGTERM kills the running call,
reaps it and exits.
"""

import json
import os
import signal
import sys
import time


def own_peak_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    state = {"pid": None, "exited": True, "timed_out": False}

    def on_alarm(signum, frame):
        # the child is reaped only after "exited" is set, so its pid is still its own
        if not state["exited"]:
            state["timed_out"] = True
            os.kill(state["pid"], signal.SIGKILL)

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        argv, out_path, err_path, timeout_s = json.loads(line)
        if not argv:
            print(json.dumps([own_peak_kb()]), flush=True)
            continue
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, write, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        state.update(pid=pid, exited=False, timed_out=False)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            state["exited"] = True
            signal.setitimer(signal.ITIMER_REAL, 0)
            _, status, usage = os.wait4(pid, 0)
        print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss, state["timed_out"]]), flush=True)


if __name__ == "__main__":
    sys.exit(main())
