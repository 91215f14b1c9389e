"""Process bookkeeping from /proc (psutil is not installed here).

Peak memory is the largest sum, over one sample, of VmHWM across the
driver and its ``ray::`` worker processes. Every process the benchmark
started descends from the driver, so the same walk finds what must have
exited before the benchmark itself exits.
"""

from __future__ import annotations

import os
import signal
import threading
import time


def _read(path: str) -> str:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return ""


def _ppid_map() -> dict[int, int]:
    out: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        # the command name is parenthesised and may hold spaces
        rest = stat[stat.rfind(")") + 2 :].split()
        if len(rest) > 1:
            out[int(name)] = int(rest[1])
    return out


def cmdline(pid: int) -> str:
    return _read(f"/proc/{pid}/cmdline").replace("\0", " ").strip()


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def is_ray(pid: int) -> bool:
    """A Ray worker (``ray::...`` title), a Ray daemon binary, or a Python
    process running one of Ray's own scripts."""
    args = _read(f"/proc/{pid}/cmdline").split("\0")
    return (
        args[0].startswith("ray::")
        or os.path.basename(args[0]) in ("raylet", "gcs_server")
        or any("/site-packages/ray/" in a for a in args[1:2])
    )


def ray_processes(exclude: int) -> list[str]:
    """Ray processes outside ``exclude``'s process tree: another session on
    this machine inflates every timing."""
    mine = set(descendants(exclude)) | {exclude}
    return [f"{p} {cmdline(p)[:80]}" for p in _ppid_map() if p not in mine and is_ray(p)]


def cpu_ticks() -> list[int]:
    """The machine's aggregate CPU counters from /proc/stat (user, nice,
    system, idle, iowait, irq, softirq, steal, ...)."""
    return [int(x) for x in _read("/proc/stat").split("\n", 1)[0].split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings. On a shared host the benchmark's walls rise
    with it."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d[:8]) if len(d) > 7 and sum(d[:8]) else 0.0


def vm_hwm_kb(pid: int) -> int:
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class PeakRss:
    """Samples Σ VmHWM(driver + ray:: descendants) every INTERVAL_S in a
    background thread and keeps the largest sum. Also remembers every
    descendant seen, for :func:`reap`."""

    INTERVAL_S = 1.0

    def __init__(self):
        self.peak_kb = 0
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        kids = descendants(me)
        self.seen.update(kids)
        total = vm_hwm_kb(me) + sum(
            vm_hwm_kb(p) for p in kids if cmdline(p).startswith("ray::")
        )
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _alive(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    return bool(stat) and stat[stat.rfind(")") + 2 :][:1] != "Z"


def reap(pids: set[int], timeout: float = 20.0) -> list[int]:
    """Wait until every process in ``pids`` and every descendant of this
    process has exited; after ``timeout`` s, SIGKILL those still alive and
    wait for them. A pid in ``pids`` that left this process tree (its parent
    died first) counts only while its command line is still Ray's, so a
    reused pid is never touched. Returns the pids that had to be killed."""
    me = os.getpid()

    def alive() -> list[int]:
        kids = set(descendants(me))
        return [
            p for p in kids | pids if _alive(p) and (p in kids or is_ray(p))
        ]

    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.2)
    left = alive()
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.2)
    return left
