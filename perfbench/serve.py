"""Server-layer probes for the traced run: ``core.detect``, ``server`` and
``registry`` timed single-threaded, in-process and over one connection to
``python -m safe_zone_ray.server`` in its own process.

Every /detect response must be byte-equal to ``server.handle_detect`` run
in-process on the same body. Admin writes are ``POST /allowlist`` of a value
no request contains, then ``DELETE`` of it; each rebuilds the registry.
"""

from __future__ import annotations

import json
import os
import re
import socket
import struct
import subprocess
import sys
import time

from perfbench import inputs as gen
from perfbench.util import median

TIMEOUT_S = 10.0
ADMIN_PAIRS = 10


class Server:
    """The server subprocess, started fresh and stopped on ``close``."""

    def __init__(self, root: str, log_path: str):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "safe_zone_ray.server", "--port", "0"],
            cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self.port = self._wait_port(log_path)
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_port(self, log_path: str) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            with open(log_path) as f:
                m = re.search(r"listening on [\d.]+:(\d+)", f.read())
            if m:
                return int(m.group(1))
            time.sleep(0.005)
        raise RuntimeError("server did not report its port")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if request(self.port, "GET", "/ready")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /ready")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def request(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection; returns (status, body).
    The server closes the connection after its response; once that close
    has arrived, the client resets the socket instead of closing it, so no
    side keeps the connection in TIME_WAIT. Tens of thousands of those
    would slow every later connect."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    try:
        sock.sendall(
            f"{method} {path} HTTP/1.0\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    finally:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def probes(ctx: dict) -> tuple[dict[str, float], int, int]:
    """Per-layer metrics of the serving path, plus (attempted, failed)
    counts of the requests it checked."""
    from safe_zone_ray.core.detect import detect_one
    from safe_zone_ray.registry import CompiledRegistry, get_compiled_registry, load_registry
    from safe_zone_ray.server import handle_detect

    reqs = gen.request_set(ctx["seed"], ctx["workdir"], ctx["requests"])
    bodies = [json.dumps(r).encode() for r in reqs]
    compiled = get_compiled_registry()

    t0 = time.perf_counter()
    for r in reqs:
        detect_one(r["text"], compiled, mode=r["mode"], rid=r["rid"],
                   guardrails=tuple(r.get("guardrails") or ()))
    detect_us = (time.perf_counter() - t0) / len(reqs) * 1e6

    expected = []
    t0 = time.perf_counter()
    for b in bodies:
        expected.append(handle_detect(b, compiled))
    handle_us = (time.perf_counter() - t0) / len(bodies) * 1e6
    expected = [
        (status, json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        for status, payload in expected
    ]

    registry = load_registry()
    compile_ms = []
    for _ in range(5):
        t0 = time.perf_counter()
        CompiledRegistry(registry)
        compile_ms.append((time.perf_counter() - t0) * 1000)

    attempted = failed = 0
    logdir = os.path.join(ctx["workdir"], "serve")
    os.makedirs(logdir, exist_ok=True)
    srv = Server(ctx["root"], os.path.join(logdir, "server.log"))
    try:
        one_conn = []
        for b, want in zip(bodies, expected):
            t0 = time.perf_counter()
            got = request(srv.port, "POST", "/detect", b)
            one_conn.append(time.perf_counter() - t0)
            attempted += 1
            failed += got != want
        admin = []
        for k in range(ADMIN_PAIRS):
            value = f"perfbench-absent-{ctx['seed']}-{k}"
            t0 = time.perf_counter()
            status, data = request(srv.port, "POST", "/allowlist", json.dumps({"value": value}).encode())
            admin.append((time.perf_counter() - t0) * 1000)
            attempted += 1
            created = status == 201 and json.loads(data).get("value") == value
            failed += not created
            if created:
                t0 = time.perf_counter()
                status, _ = request(srv.port, "DELETE", f"/allowlist/{json.loads(data)['ID']}")
                admin.append((time.perf_counter() - t0) * 1000)
                attempted += 1
                failed += status != 204
    finally:
        srv.close()
    metrics = {
        "detect_one.us_per_req": detect_us,
        "handle_detect.us_per_req": handle_us,
        "transport.us_per_req": sum(one_conn) / len(one_conn) * 1e6 - handle_us,
        "registry.compile_ms": median(compile_ms),
        "admin.p50_ms": median(admin),
    }
    return metrics, attempted, failed
