"""Process accounting and cleanup: CPU and memory from ``/proc``, stopping
the server's process group, and the end-of-run leak checks.

A SIGKILLed pool owner orphans its workers (they block forever waiting
for their next task), so nothing here ever kills a pool owner alone: the
server runs in its own process group, is asked to stop with its
``shutdown`` op, and only past a deadline does the whole group get
SIGTERM and then SIGKILL.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Dict, Iterable, Optional, Set

_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"
_SHM_PREFIXES = ("repro_", "psm_")


def _stat(pid: int):
    """``(state, ppid, pgrp, cpu_seconds)`` of ``pid``, or ``None`` if gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    cpu = (int(fields[11]) + int(fields[12])) / _TICKS
    return fields[0], int(fields[1]), int(fields[2]), cpu


def _all_stats() -> Dict[int, tuple]:
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None:
                stats[int(entry)] = stat
    return stats


def live_processes(roots: Iterable[int], groups: Iterable[int] = ()) -> Set[int]:
    """Live (non-zombie) descendants of ``roots`` plus members of ``groups``.

    Process groups catch workers whose owner died: they are reparented
    away from the owner but keep its group id.
    """
    stats = _all_stats()
    children: Dict[int, list] = {}
    for pid, (_, ppid, _, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    found = set()
    pending = list(roots)
    while pending:
        for child in children.get(pending.pop(), ()):
            if child not in found:
                found.add(child)
                pending.append(child)
    groups = set(groups)
    found.update(pid for pid, stat in stats.items() if stat[2] in groups)
    return {pid for pid in found if pid in stats and stats[pid][0] != "Z"}


class CpuMeter:
    """CPU seconds used by a process and its descendants between two reads.

    Processes that exit during the interval are covered when they are
    this process's own children (joined pool workers): their lifetime CPU
    arrives through ``os.times()`` while their pre-interval share is
    subtracted.
    """

    def __init__(self, root: int) -> None:
        self._root = root
        self._start = self._sample()
        self._reaped = self._reaped_children()

    def _pids(self) -> Set[int]:
        return {self._root} | live_processes([self._root])

    def _sample(self) -> Dict[int, float]:
        sample = {}
        for pid in self._pids():
            stat = _stat(pid)
            if stat is not None:
                sample[pid] = stat[3]
        return sample

    def _reaped_children(self) -> float:
        if self._root != os.getpid():
            return 0.0
        times = os.times()
        return times.children_user + times.children_system

    def seconds(self) -> float:
        end = self._sample()
        return (
            sum(end.values())
            - sum(self._start.values())
            + self._reaped_children()
            - self._reaped
        )

    def peak_rss_mib(self) -> float:
        """Sum of ``VmHWM`` over the process and its live descendants."""
        total_kib = 0
        for pid in self._pids():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0


def shm_segments() -> Set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(_SHM_PREFIXES)}


def wait_gone(pids: Iterable[int], timeout: float) -> Set[int]:
    """Poll until ``pids`` have exited (reaping our own children)."""
    deadline = time.monotonic() + timeout
    alive = set(pids)
    while alive:
        for pid in list(alive):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            stat = _stat(pid)
            if stat is None or stat[0] == "Z":
                alive.discard(pid)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return alive


def stop_group(process, shutdown, deadline_s: float, log) -> None:
    """Stop a server started with ``start_new_session=True``.

    ``shutdown()`` asks politely (the protocol's ``shutdown`` op); past
    ``deadline_s`` the whole process group gets SIGTERM, then SIGKILL.
    Returns once the group is empty.
    """
    group = process.pid
    if process.poll() is None:
        try:
            shutdown()
        except OSError as exc:
            log(f"shutdown op failed ({exc}); escalating")
        try:
            process.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            log(f"server {group} ignored shutdown for {deadline_s}s: SIGTERM")
            _killpg(group, signal.SIGTERM)
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                log(f"server {group} ignored SIGTERM: SIGKILL")
                _killpg(group, signal.SIGKILL)
                process.wait()
    stragglers = live_processes([], groups=[group])
    if stragglers:
        log(f"orphans left in server group {group}: {sorted(stragglers)}; SIGKILL")
        _killpg(group, signal.SIGKILL)
        wait_gone(stragglers, 10.0)


def _killpg(group: int, signum: int) -> None:
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing.shared_memory`` starts.

    It would otherwise outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def leak_report(server_groups: Iterable[int], shm_before: Set[str]) -> Optional[str]:
    """``None`` if nothing this run started survives, else what does.

    Survivors are killed so the next run starts clean, but the run fails.
    """
    survivors = live_processes([os.getpid()], groups=server_groups)
    segments = shm_segments() - shm_before
    if not survivors and not segments:
        return None
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_gone(survivors, 10.0)
    for name in segments:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            pass
    return f"left running: {sorted(survivors)}; left in /dev/shm: {sorted(segments)}"
