"""Program processes: where they run from and how they are measured."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def program_env() -> dict:
    """Environment for a program process: ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (resident high-water mark) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> int:
    """Confine the calling thread, and every thread and process it starts
    from then on, to the lowest CPU it may run on; returns that CPU.

    ``serve`` pins its client and its servers to one CPU.  On a host that
    shares its CPUs with other machines, one busy virtual CPU is stolen
    from rarely and two busy ones often: with client and server running
    at once on two CPUs, the host took 0.11 CPU-seconds per second (up to
    0.37) against 0.03 with both on one CPU, and the request rate spread
    half as much again.  The server is one asyncio process answering one
    client, so the two never need two CPUs at once.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``proc`` to end, killing it after ``timeout`` seconds."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
