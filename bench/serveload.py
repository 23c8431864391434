"""Open-loop HTTP load against ``python -m repro serve``.

:class:`Server` runs the job server as its own process group and stops it
with SIGINT, the signal its graceful drain handles. :func:`run_phase`
replays a :func:`repro.serve.loadgen.build_schedule` schedule open loop:
each request is sent at its due time whatever the server is doing, over
at most ``connections`` concurrent connections, and is timed from its
due time, so a stall also charges the requests queued behind it. The
HTTP client is the standard library's, so the measured path does not
depend on client code inside the program.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import stats

#: Latency limit a request must meet to count at a ladder rate.
LIMIT_MS = 25.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):([0-9]+)")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as required."""


class Server:
    """One ``python -m repro serve --port 0`` process group."""

    def __init__(self, root: Path, env: Dict[str, str],
                 workers: int = 1) -> None:
        self.root, self.env, self.workers = root, env, workers
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "", 0
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump_thread: Optional[threading.Thread] = None

    def start(self, deadline_s: float = 60.0) -> float:
        """Spawn the server, wait for ``/healthz``; returns seconds
        from spawn to healthy."""
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(self.workers)],
            cwd=self.root, env={**self.env, "PYTHONUNBUFFERED": "1"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        self._pump_thread = threading.Thread(target=self._pump,
                                             daemon=True)
        self._pump_thread.start()
        limit = begin + deadline_s
        while not self.port:
            try:
                line = self._lines.get(
                    timeout=max(0.0, limit - time.perf_counter()))
            except queue.Empty:
                raise ServerError("no 'listening on' line before the "
                                  "deadline") from None
            if line is None:
                raise ServerError("server exited during start-up: "
                                  + "".join(self.output[-20:]))
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                status, _ = asyncio.run(
                    exchange(self.host, self.port, "GET", "/healthz"))
                if status == 200:
                    return time.perf_counter() - begin
            except OSError:
                pass
            if time.perf_counter() > limit:
                raise ServerError("/healthz never answered 200")
            time.sleep(0.01)

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def children(self) -> List[int]:
        """Live processes whose parent is the server."""
        assert self.proc is not None
        found = []
        for entry in Path("/proc").iterdir():
            fields = _stat(int(entry.name)) if entry.name.isdigit() else []
            if fields and fields[0] != "Z" and int(fields[1]) == self.proc.pid:
                found.append(int(entry.name))
        return found

    def stop(self, deadline_s: float = 30.0) -> Tuple[float, List[str]]:
        """SIGINT, wait up to the deadline, then check that no child
        survived. Returns (peak RSS in MB of the server and the children
        it waited for, problems found). Kills whatever is left either
        way, so the process group is gone when this returns."""
        assert self.proc is not None
        problems: List[str] = []
        children = self.children()
        self.proc.send_signal(signal.SIGINT)
        rusage = None
        limit = time.perf_counter() + deadline_s
        while rusage is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            elif time.perf_counter() > limit:
                problems.append("server ignored SIGINT past the deadline")
                os.killpg(self.proc.pid, signal.SIGKILL)
                _, status, rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            else:
                time.sleep(0.02)
        survivors = [pid for pid in children if _alive(pid)]
        if survivors:
            problems.append(f"server children {survivors} survived it")
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for pid in survivors:
            _wait_gone(pid)
        self._pump_thread.join(timeout=5)
        self.proc.stdout.close()
        return rusage.ru_maxrss / 1024.0, problems


def _stat(pid: int) -> List[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    parent pid, ...); empty once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text[text.rindex(")") + 2:].split()


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return bool(fields) and fields[0] != "Z"


def _wait_gone(pid: int, deadline_s: float = 10.0) -> None:
    limit = time.perf_counter() + deadline_s
    while _alive(pid) and time.perf_counter() < limit:
        time.sleep(0.02)


async def exchange(host: str, port: int, method: str, path: str,
                   body: Any = None,
                   client: str = "") -> Tuple[int, Any]:
    """One HTTP/1.1 request on its own connection; (status, JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Connection: close\r\nContent-Length: {len(data)}\r\n")
        if client:
            head += f"X-Client-Id: {client}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload or b"null")


@dataclass
class Phase:
    """Outcome of replaying one schedule."""

    offered_rps: float
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    responses: List[Dict[str, Any]] = field(default_factory=list)
    failed: int = 0
    achieved_rps: float = 0.0

    def tail_ms(self, q: float) -> float:
        """Latency percentile, a failed request counting as infinite."""
        return stats.percentile(
            self.latencies_ms + [float("inf")] * self.failed, q)

    def meets(self) -> bool:
        """p99 within :data:`LIMIT_MS`, throughput within 5% of offered
        and no request failed."""
        return (self.failed == 0 and self.tail_ms(0.99) <= LIMIT_MS
                and self.achieved_rps >= 0.95 * self.offered_rps)


async def _request(host: str, port: int, entry: Dict[str, Any],
                   due: float, slots: asyncio.Semaphore,
                   phase: Phase) -> float:
    """Submit one job and long-poll it to a terminal state; returns
    when it finished. Refusals and errors count as failed."""
    try:
        async with slots:
            status, payload = await exchange(
                host, port, "POST", "/jobs", entry["spec"],
                entry["client"])
        while (status in (200, 202) and isinstance(payload, dict)
               and payload.get("state") in ("queued", "running")):
            async with slots:
                status, payload = await exchange(
                    host, port, "GET", f"/jobs/{payload['id']}?wait=30")
    except (OSError, ValueError, IndexError):
        status, payload = 0, None
    finished = time.perf_counter()
    if (status in (200, 202) and isinstance(payload, dict)
            and payload.get("state") == "done"):
        phase.latencies_ms.append((finished - due) * 1000.0)
        phase.responses.append(payload)
    else:
        phase.failed += 1
    return finished


async def _replay(host: str, port: int, schedule: Dict[str, Any],
                  connections: int) -> Phase:
    entries = schedule["requests"]
    span_s = entries[-1]["at_ms"] / 1000.0 if entries else 0.0
    phase = Phase(offered_rps=len(entries) / span_s if span_s else 0.0)
    slots = asyncio.Semaphore(connections)
    origin = time.perf_counter() + 0.01
    tasks = []
    for entry in entries:
        due = origin + entry["at_ms"] / 1000.0
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_ms.append((time.perf_counter() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(
            _request(host, port, entry, due, slots, phase)))
    finished = await asyncio.gather(*tasks)
    elapsed = max(finished) - origin if finished else 0.0
    phase.achieved_rps = (len(phase.latencies_ms) / elapsed
                          if elapsed else 0.0)
    return phase


def run_phase(server: Server, schedule: Dict[str, Any],
              connections: int) -> Phase:
    return asyncio.run(_replay(server.host, server.port, schedule,
                               connections))


def metrics_snapshot(server: Server) -> Dict[str, Any]:
    status, payload = asyncio.run(
        exchange(server.host, server.port, "GET", "/metrics"))
    if status != 200:
        raise ServerError(f"GET /metrics answered {status}")
    return payload
