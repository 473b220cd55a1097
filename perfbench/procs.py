"""Child processes of a benchmark run: ``repro serve`` and ``repro worker``.

Every child listens on an ephemeral port (``--port 0``; the port is read
back from its readiness line), runs with a pinned ``PYTHONHASHSEED`` and
is killed when its :class:`Children` group closes, which the workloads do
in ``finally`` — so no child outlives a run that raised.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Pinned for every child (and recorded in the results), so set and dict
#: iteration orders inside servers and shards repeat run to run.
PYTHONHASHSEED = "0"
#: Longest a child may take to print its readiness line.
READY_TIMEOUT_S = 60.0

#: Readiness lines: "serving <graph> from <path> on H:P", "worker serving
#: on H:P [graph ...]".
_READY = re.compile(r"serving(?: .*)? on ([\w.\-]+):(\d+)")


def child_env() -> dict[str, str]:
    """The environment every child runs with."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process in MB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Children:
    """A group of ``python -m repro`` children, all killed on close."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def start(self, *argv: list[str]) -> list[tuple[str, int]]:
        """Start ``python -m repro <args>`` for each argument list at
        once; returns their addresses once all are ready."""
        procs = []
        for args in argv:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            self._procs.append(proc)
            procs.append(proc)
        return [self._await_ready(proc) for proc in procs]

    @staticmethod
    def _await_ready(proc: subprocess.Popen) -> tuple[str, int]:
        found: list[tuple[str, int]] = []
        seen: list[str] = []

        def read() -> None:
            for line in proc.stdout:
                seen.append(line)
                match = _READY.search(line)
                if match:
                    found.append((match.group(1), int(match.group(2))))
                    break

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(READY_TIMEOUT_S)
        if not found:
            raise RuntimeError(
                f"child {proc.args[3:]} not ready "
                f"(exit {proc.poll()}): {''.join(seen)[-2000:]}"
            )
        # Keep draining so a chatty child can never block on a full pipe.
        threading.Thread(
            target=lambda: [None for _ in proc.stdout], daemon=True
        ).start()
        return found[0]

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self._procs]

    def rss_mb(self) -> float:
        """Summed peak RSS (``VmHWM``) of the live children, in MB."""
        return sum(
            vm_hwm_mb(proc.pid) for proc in self._procs if proc.poll() is None
        )

    def close(self) -> None:
        """Kill and reap every child (idempotent)."""
        while self._procs:
            proc = self._procs.pop()
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
