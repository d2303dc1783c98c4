"""Server processes started through the public CLI, and their teardown.

``repro serve`` (one process) or ``repro serve --cluster 3`` (a router
process that spawns three shard workers) runs from the checkout's
``src`` directory.  The benchmark talks to them only over HTTP; it reads
nothing of theirs except ``/proc/<pid>/status`` for peak memory.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0

_SINGLE_RE = re.compile(r"repro-serve listening on http://[^:]+:(\d+)")
_ROUTER_RE = re.compile(r"repro-serve cluster: router on http://[^:]+:(\d+)")


class ServerError(RuntimeError):
    """A server process failed to boot or answered unusably."""


def get_json(port: int, path: str, timeout_s: float = 60.0) -> dict:
    """One GET on a fresh connection, JSON-decoded; non-200 raises."""
    conn = HTTPConnection(HOST, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise ServerError(f"GET {path} answered {response.status}: {body[:200]!r}")
    return json.loads(body)


class ServerSet:
    """One deployment: a ``repro serve`` process and whatever it spawns."""

    def __init__(
        self,
        repo_root: Path,
        workdir: Path,
        *,
        shards: int = 0,
        wal_dir: Path | None = None,
        trace_dir: Path | None = None,
    ) -> None:
        self.repo_root = repo_root
        self.workdir = workdir
        self.shards = shards
        self.wal_dir = wal_dir
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.worker_ports: dict[str, int] = {}
        self.worker_pids: list[int] = []

    def _command(self) -> list[str]:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--host", HOST]
        if self.shards:
            cmd += ["--cluster", str(self.shards), "--router-port", "0"]
        else:
            cmd += ["--port", "0"]
        if self.wal_dir is not None:
            cmd += ["--wal-dir", str(self.wal_dir)]
        return cmd

    def _env(self) -> dict:
        path = [str(self.repo_root / "src")]
        env = dict(os.environ)
        env.pop("LOADBENCH_TRACE_OUT", None)
        if self.trace_dir is not None:
            path.insert(0, str(Path(__file__).resolve().parent / "trace_hook"))
            env["LOADBENCH_TRACE_OUT"] = str(self.trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.workdir)
        return env

    def start(self) -> None:
        """Launch and block until every process answers ``/healthz`` ok."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = self.workdir / "server.out"
        err = self.workdir / "server.err"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            self.proc = subprocess.Popen(
                self._command(),
                cwd=self.workdir,
                env=self._env(),
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
                start_new_session=True,
            )
        pattern = _ROUTER_RE if self.shards else _SINGLE_RE
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            match = pattern.search(out.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise ServerError(
                    "server did not start: "
                    + err.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.005)
        self._await_healthy(deadline)
        if self.shards:
            topology = get_json(self.port, "/cluster")
            for shard, entry in topology["shards"].items():
                self.worker_ports[shard] = int(entry["address"][1])
                self.worker_pids.append(int(entry["pid"]))

    def _await_healthy(self, deadline: float) -> None:
        while True:
            try:
                if get_json(self.port, "/healthz", timeout_s=5)["status"] == "ok":
                    return
            except (OSError, HTTPException, ServerError, ValueError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise ServerError("server never reported healthy")
            time.sleep(0.005)

    def pids(self) -> list[int]:
        return [self.proc.pid, *self.worker_pids] if self.proc else []

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` (peak resident set) of every server process."""
        total_kb = 0
        for pid in self.pids():
            status = Path(f"/proc/{pid}/status").read_text()
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match is None:
                raise ServerError(f"no VmHWM for pid {pid}")
            total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; SIGKILL as a last resort.

        A clean exit matters for traced runs: processes write their spans
        on the way out.  The worker processes of a cluster are stopped by
        their router; any still alive afterwards are killed.
        """
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        for pid in self.worker_pids:
            _await_exit(pid)
        self.proc = None


def _await_exit(pid: int) -> None:
    """Wait for a grandchild (not ours to reap) to disappear."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _alive(pid):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + STOP_TIMEOUT_S
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status
