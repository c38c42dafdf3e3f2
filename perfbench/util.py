"""Small measurement helpers: the median, the single-thread CPU probe and
peak resident memory from ``/proc``."""

from __future__ import annotations

import hashlib
import os
import statistics
import time


def median(values) -> float:
    return float(statistics.median(values))


def cpu_probe_ms() -> float:
    """Fixed single-thread work (hashing 8 MiB plus a Python loop). A reading
    well above its usual value marks a contended window; it is context
    printed beside the results, never a metric."""
    t = time.perf_counter()
    block = b"\x5a" * (1 << 20)
    h = hashlib.sha256()
    for _ in range(8):
        h.update(block)
    acc = 0
    for i in range(300_000):
        acc ^= i * 2654435761 & 0xFFFF
    return (time.perf_counter() - t) * 1000.0


def cpu_seconds() -> tuple[float, float]:
    """System-wide (busy, stolen) CPU seconds since boot, from the first line
    of ``/proc/stat``. Stolen time is time a virtual CPU wanted to run but the
    host ran something else."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, f.readline().split()[1:9])
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def granted_share(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Share of the CPU time asked for between two ``cpu_seconds()`` readings
    that the host granted: busy / (busy + stolen). A wall time scaled by it
    approximates the time the same work takes on an uncontended host."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy > 0 else 1.0


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: the ppid follows the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_pids(root: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def vmhwm_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
