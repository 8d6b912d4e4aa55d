"""Process, disk and host probes: CPU seconds, resident memory, bytes on
disk, and the host's current speed.

Linux-only, like the rest of the benchmark: process figures are read from
``/proc`` for the benchmark process and its children.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")
_MIB = 1024 * 1024


def child_pids() -> list[int]:
    """Live child processes of this process (pool workers among them).

    Each thread lists the children it forked, so every task is read.
    """
    pids: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            text = Path(f"/proc/self/task/{tid}/children").read_text()
        except OSError:
            continue
        pids.extend(int(pid) for pid in text.split())
    return pids


def _proc_cpu(pid: int) -> float:
    """utime + stime of a live process in seconds; 0 once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Field 2 (comm) may hold spaces; fields after its closing paren are
    # space-separated, utime and stime being the 14th and 15th overall.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and all its children.

    Reaped children (per-call pools) are in ``os.times().children_*``; live
    ones (a warm pool) are read from ``/proc/<pid>/stat``.
    """
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    return total + sum(_proc_cpu(pid) for pid in child_pids())


def _status_kib(pid: int | str, key: str) -> int:
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return 0
    for line in lines:
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mib() -> float:
    """VmHWM of this process since start or the last :func:`reset_peak_rss`."""
    return _status_kib("self", "VmHWM") / 1024


def children_rss_mib() -> float:
    """Summed VmRSS of the live child processes."""
    return sum(_status_kib(pid, "VmRSS") for pid in child_pids()) / 1024


#: The calibration kernel.  About half of it is interpreter arithmetic; the
#: other half renders, hashes, sorts and looks up 10,000 fresh short
#: strings, as profiling, export and the oracle do, and so also pays for
#: the new memory it takes.  For each line read it runs once pinned to
#: each CPU this process may use and prints the mean wall seconds.
_KERNEL = """
import gc, os, sys, time

def kernel():
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = [f"v{i * 7919 % 100003:06d}" for i in range(10_000)]
    present = set(values)
    values.sort()
    position = {value: i for i, value in enumerate(values)}
    return total + sum(position[value] for value in values if value in present)

cpus = sorted(os.sched_getaffinity(0))
gc.disable()
for _ in sys.stdin:
    seconds = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        kernel()
        seconds += time.perf_counter() - start
    print(seconds / len(cpus), flush=True)
"""


class Calibrator:
    """A fixed kernel of the program's kind of work, timed on request.

    It runs in a process of its own, started fresh from the interpreter
    rather than forked, so neither the program's code nor the state of
    the benchmark's heap (pages freed, shared with forked pool workers)
    moves its time; what moves it is how fast the shared host runs Python
    at that moment.  On the 2-vCPU test machine the two CPUs often run at
    different speeds, and which one is slow changes within seconds, while
    the benchmark and its pool workers move between them; so the kernel
    runs on every CPU in turn and the mean is reported.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _KERNEL],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def measure(self) -> float:
        """Mean wall seconds of one run of the kernel on each CPU."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        """Stop the process and wait for it to end."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def disk_mib(root: str | Path) -> float:
    """MiB of the files under ``root``, each inode counted once.

    Hardlinked spool files shared by several cache entries count once,
    which is what the disk actually holds.
    """
    seen: set[tuple[int, int]] = set()
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            st = os.lstat(os.path.join(directory, name))
            key = (st.st_dev, st.st_ino)
            if key not in seen:
                seen.add(key)
                total += st.st_size
    return total / _MIB
