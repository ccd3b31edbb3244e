"""The ``serve-mixed`` traffic: ``repro serve`` in its own process, driven
by a single-threaded open-loop generator over two keep-alive connections.

Reads (``POST /count``, 4 hub-anchored pairs each) are due every
``1 / READ_RATE`` seconds and edits (``POST /edits``) every
``EDIT_PERIOD`` seconds, whatever the server is doing; each request is
timed from when it was due, so a stall also charges the requests queued
behind it.  Edits alternately insert and delete the same non-edges, so
even epochs are the original graph and odd epochs the edited one, and
every read is checked against the expected counts for the epoch its
response reports.  Edits ride connection 0, which keeps them in order;
each read takes the connection with fewer requests in flight.
"""

from __future__ import annotations

import asyncio
import collections
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from e2e_core import Mismatch, percentile, tail_level
from e2e_inputs import EDIT_PERIOD, READ_RATE

#: Kernel dispatch threads of the server (the host has 2 vCPUs).
DISPATCH_THREADS = 2


class ServerProcess:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, root: Path, env: dict, log_path: Path):
        self.root = root
        self.env = env
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> int:
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--dispatch-threads", str(DISPATCH_THREADS)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                self.stop()
                raise RuntimeError("server did not report its address in time")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                self.stop()
                raise RuntimeError(f"server exited early (see {self.log_path})")
            line += chunk
        # "serving on http://127.0.0.1:PORT"
        self.port = int(line.decode().strip().rsplit(":", 1)[1])
        return self.port

    def stop(self) -> None:
        """Interrupt the server (it closes its service on KeyboardInterrupt)
        and wait for it; kill it if it does not exit."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


async def request(port: int, method: str, path: str, body=None) -> tuple[int, dict]:
    """One control-plane request on its own connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        status, data = await _read_response(reader)
        return status, json.loads(data)
    finally:
        writer.close()
        await writer.wait_closed()


async def _read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
            break
    return status, await reader.readexactly(length)


def _post(path: bytes, body: bytes) -> bytes:
    return (
        b"POST " + path + b" HTTP/1.1\r\nHost: bench\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\n\r\n" + body
    )


class _Conn:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.inflight: collections.deque = collections.deque()


class Phase:
    """What one stretch of traffic measured."""

    def __init__(self):
        self.reads: list[float] = []  # due → response, seconds
        self.late: list[float] = []  # due → sent
        self.edits: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0


class Traffic:
    """The open-loop generator against one loaded graph."""

    def __init__(self, port: int, key: str, traffic: dict):
        self.port = port
        self.key = key.encode()
        self.pairs = traffic["pairs"]
        self.expect = traffic["expect"]
        edits = traffic["edits"].tolist()
        graph = b'{"graph":"' + self.key + b'",'
        self._edit_bodies = [
            graph + b'"insert":' + json.dumps(edits).encode() + b"}",
            graph + b'"delete":' + json.dumps(edits).encode() + b"}",
        ]
        self._graph = graph
        self.num_edit_pairs = len(edits)
        #: Sent → response of every read on the keep-alive connections, in
        #: completion order, across phases (the server's latency reservoir
        #: also spans phases).
        self.roundtrips: list[float] = []
        self.next_read = 0
        self.edits_sent = 0
        self.epoch = 0
        self.conns: list[_Conn] = []
        self._readers: list[asyncio.Task] = []
        self._phase = Phase()
        self._tracer = None
        self._error: BaseException | None = None
        self._idle = asyncio.Event()

    def read_body(self, i: int) -> bytes:
        return self._graph + b'"pairs":' + json.dumps(self.pairs[i].tolist()).encode() + b"}"

    def check_read(self, i: int, epoch: int, counts) -> None:
        want = self.expect[epoch % 2, i].tolist()
        if counts != want:
            raise Mismatch(
                f"read {i} at epoch {epoch}: got {counts}, expected {want}"
            )

    async def first_read(self) -> None:
        """The set-up's first operation: one read, checked."""
        status, data = await request(
            self.port, "POST", "/count",
            {"graph": self.key.decode(), "pairs": self.pairs[0].tolist()},
        )
        if status != 200:
            raise RuntimeError(f"first read failed: {status} {data}")
        self.check_read(0, data["epoch"], data["counts"])
        self.next_read = 1

    async def open(self, connections: int = 2) -> None:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            conn = _Conn(reader, writer)
            self.conns.append(conn)
            self._readers.append(asyncio.create_task(self._reader(conn)))

    async def close(self) -> None:
        for conn in self.conns:
            conn.writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for conn in self.conns:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def stats(self) -> dict:
        status, data = await request(self.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats failed: {status}")
        return data

    async def run(self, seconds: float, tracer=None) -> Phase:
        """Send ``seconds`` of scheduled traffic, then wait for the replies."""
        loop = asyncio.get_running_loop()
        phase = self._phase = Phase()
        self._tracer = tracer
        # Every event due in [0, seconds): an edit at 0 even in a short phase.
        num_reads = math.ceil(seconds * READ_RATE)
        num_edits = math.ceil(seconds / EDIT_PERIOD)
        if self.next_read + num_reads > len(self.pairs):
            raise ValueError("not enough generated reads for this phase")
        t0 = loop.time()
        r = e = 0
        while r < num_reads or e < num_edits:
            read_due = t0 + r / READ_RATE if r < num_reads else float("inf")
            edit_due = t0 + e * EDIT_PERIOD if e < num_edits else float("inf")
            due = min(read_due, edit_due)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._error is not None:
                raise self._error
            if edit_due <= read_due:
                conn = self.conns[0]
                body = self._edit_bodies[self.edits_sent % 2]
                item = ("edit", due, loop.time(), self.edits_sent)
                self.edits_sent += 1
                e += 1
                conn.writer.write(_post(b"/edits", body))
            else:
                conn = min(self.conns, key=lambda c: len(c.inflight))
                i = self.next_read
                self.next_read += 1
                item = ("read", due, loop.time(), i)
                r += 1
                conn.writer.write(_post(b"/count", self.read_body(i)))
            conn.inflight.append(item)
            phase.attempted += 1
        await self._drain()
        phase.elapsed = loop.time() - t0
        self._tracer = None
        return phase

    async def _drain(self) -> None:
        while any(c.inflight for c in self.conns):
            if self._error is not None:
                raise self._error
            self._idle.clear()
            await self._idle.wait()
        if self._error is not None:
            raise self._error

    async def _reader(self, conn: _Conn) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                status, body = await _read_response(conn.reader)
                now = loop.time()
                kind, due, sent, index = conn.inflight.popleft()
                self._complete(kind, due, sent, index, status, body, now)
                if not any(c.inflight for c in self.conns):
                    self._idle.set()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - surfaced by run()
            self._error = exc
            self._idle.set()

    def _complete(self, kind, due, sent, index, status, body, now) -> None:
        phase = self._phase
        if status != 200:
            if kind == "edit":
                # The epoch model no longer holds; later reads cannot be checked.
                raise RuntimeError(f"edit {index} failed with HTTP {status}: {body!r}")
            phase.failed += 1
            return
        data = json.loads(body)
        if kind == "read":
            self.check_read(index, data["epoch"], data["counts"])
            phase.reads.append(now - due)
            self.roundtrips.append(now - sent)
            phase.late.append(sent - due)
            if self._tracer is not None:
                root = self._tracer.op_at(due, now, kind="read")
                self._tracer.add("serve.client_wait", due, sent, root)
                self._tracer.add("serve.roundtrip", sent, now, root)
        else:
            changed = data["inserted"] + data["deleted"]
            if changed != self.num_edit_pairs or data["epoch"] != self.epoch + 1:
                raise Mismatch(
                    f"edit {index}: changed {changed} edges to epoch "
                    f"{data['epoch']} (expected {self.num_edit_pairs} edges, "
                    f"epoch {self.epoch + 1})"
                )
            self.epoch = data["epoch"]
            phase.edits.append(now - due)
            phase.late.append(sent - due)


def layer_metrics(phase: Phase, before: dict, after: dict, roundtrips: list[float]) -> dict:
    """Serve-layer metrics of one traced phase: client spans plus the
    deltas of ``GET /stats`` around it.

    Two figures are not per-phase, because ``/stats`` keeps no per-phase
    version of them.  ``serve.server_p50_ms`` is the median of the
    server's latency reservoir, which holds its last ``count`` reads;
    ``serve.http_overhead_ms`` subtracts it from the client round-trip
    median of the same last ``count`` reads.  ``serve.queue_depth_max``
    is the admission high-water mark since the server started.
    """
    server = after["latency_ms"]
    requests = after["requests"] - before["requests"]
    batches = after["batches"] - before["batches"]
    out = {
        "serve.server_p50_ms": server["p50_ms"],
        "serve.http_overhead_ms": (
            percentile(roundtrips[-server["count"]:], 0.5) * 1e3 - server["p50_ms"]
        ),
        "serve.kernel_ms_per_req": (
            (after["kernel_seconds"] - before["kernel_seconds"]) * 1e3 / max(requests, 1)
        ),
        "serve.epochs": after["edits"] - before["edits"],
        "serve.batch_size_mean": requests / max(batches, 1),
        "serve.queue_depth_max": after["queue_depth"]["max"],
        "serve.rejected": after["rejected"] - before["rejected"],
    }
    if phase.edits:
        out["serve.edit_p50_ms"] = percentile(phase.edits, 0.5) * 1e3
    if phase.late:
        out["serve.gen_late_tail_ms"] = (
            percentile(phase.late, tail_level(len(phase.late))) * 1e3
        )
    return out
