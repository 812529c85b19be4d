"""Child processes for the benchmark, timed without polling."""

import signal
import subprocess
import threading
import time

CHILD_TIMEOUT_S = 150


def run_child(argv, cwd, env, timeout=CHILD_TIMEOUT_S):
    """Run a child process to its end; returns (exit code, stderr, seconds).

    The wait blocks and a watchdog thread kills the child after ``timeout``.
    subprocess's own timeout polls instead, which rounds exit times up to
    50 ms.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    # SIGALRM (speed.py) stays blocked until the child has exited: on the
    # one CPU they share, the speed kernel would be timed together with the
    # child.  A sample that falls due meanwhile runs once it is unblocked.
    # The watchdog thread inherits the mask.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, stderr = proc.communicate()
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return proc.returncode, stderr, seconds
