"""Run ``repro serve`` as a subprocess and read it from outside:
``/healthz``, ``/info``, ``/metrics`` and ``/proc``."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from client import Conn

_TICKS = os.sysconf("SC_CLK_TCK")
_ANNOUNCE = re.compile(r"GET http://[^:]+:(\d+)/info")
_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')


class ServerError(RuntimeError):
    """The server did not come up or misbehaved."""


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


def process_tree(pid: int) -> List[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def tree_cpu_s(pid: int) -> float:
    """User+system CPU seconds of ``pid`` and its live descendants."""
    total = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of each live tree member's peak RSS (VmHWM)."""
    total_kb = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def parse_metrics(text: str) -> Dict[Tuple[str, Tuple], float]:
    """A Prometheus text exposition as ``{(name, labels): value}``."""
    out: Dict[Tuple[str, Tuple], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line.strip())
        if m is None:
            continue
        labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
        out[(m.group(1), labels)] = float(m.group(3))
    return out


def metric_sum(snap: Dict[Tuple[str, Tuple], float], name: str,
               **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        v for (n, ls), v in snap.items()
        if n == name and want.issubset(set(ls))
    )


class Server:
    """One ``repro serve --frontend async`` subprocess, default limits."""

    def __init__(self, src: str, mount: str, log_path: str):
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--frontend", "async",
             "--port", "0", "--artifact", mount],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the announce line names a port and ``/healthz``
        answers 200 with a mount loaded."""
        stop = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode}; "
                    f"see {self.log_path}"
                )
            with open(self.log_path, "rb") as fh:
                m = _ANNOUNCE.search(fh.read().decode("utf-8", "replace"))
            if m:
                self.port = int(m.group(1))
                break
            if time.monotonic() > stop:
                raise ServerError("server never announced its port")
            time.sleep(0.005)
        while True:
            try:
                with Conn(self.port) as c:
                    status, body = c.get_json("/healthz")
                if status == 200 and body.get("artifacts", 0) >= 1:
                    return
            except (OSError, ValueError):
                pass
            if time.monotonic() > stop:
                raise ServerError("/healthz never answered 200")
            time.sleep(0.005)

    def info(self) -> dict:
        with Conn(self.port) as c:
            status, body = c.get_json("/info")
        if status != 200:
            raise ServerError(f"/info answered {status}")
        return body

    def metrics(self) -> Dict[Tuple[str, Tuple], float]:
        with Conn(self.port) as c:
            status, text = c.get_text("/metrics")
        if status != 200:
            raise ServerError(f"/metrics answered {status}")
        return parse_metrics(text)

    def cpu_s(self) -> float:
        return tree_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.pid)

    def stop(self, drain_timeout: float = 15.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=drain_timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        self._log.close()
