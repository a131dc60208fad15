"""Minimal HTTP ops API for the monitoring daemon (stdlib asyncio only).

One short-lived HTTP/1.0-style exchange per connection (``Connection:
close``), JSON in, JSON out — enough surface for curl, a scraper and a
control script, with zero dependencies.  The daemon object passed in is
duck-typed: the server only calls its public ops methods
(``status`` / ``add_query`` / ``remove_query`` / ``set_capacity`` /
``apply_config`` / ``checkpoint_now`` / ``result_document`` /
``metric_families`` / ``stop``).

Routes
------
=======  =============  ====================================================
GET      /status        Health + throughput + per-query accuracy-so-far
GET      /metrics       Prometheus text exposition format
GET      /result        Partial (or final) execution result as JSON
GET      /queries       The registered query names
POST     /queries       Add a query (JSON QuerySpec or ``{"spec": ...}``)
DELETE   /queries/NAME  Remove query ``NAME`` at the next bin boundary
POST     /capacity      ``{"cycles_per_second": 2e8}``
POST     /config        Hot-reload live-applicable config fields
POST     /checkpoint    Write a checkpoint right now
POST     /shutdown      Graceful shutdown (drain, checkpoint, close)
=======  =============  ====================================================

Errors map to conventional statuses: ``ValueError`` → 400, ``KeyError``
→ 404, :class:`OpsError` → its own status, anything else → 500; every
error body is ``{"error": ...}``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, List, Optional, Tuple

import numpy as np

logger = logging.getLogger("repro.serve.api")

__all__ = ["OpsError", "OpsServer", "render_metrics"]

#: Upper bound on request head + body; ops payloads are tiny.
_MAX_REQUEST_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
}


class OpsError(Exception):
    """An ops failure with an explicit HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


def _jsonable(value):
    """Coerce numpy scalars/arrays (and friends) to JSON-able data."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_metrics(families: List[Dict]) -> str:
    """Render metric families in the Prometheus text exposition format.

    Each family is ``{"name", "type", "help", "samples"}`` with samples a
    list of ``(labels_dict, value)`` pairs.
    """
    lines: List[str] = []
    for family in families:
        name = family["name"]
        help_text = str(family.get("help", "")).replace("\\", r"\\") \
            .replace("\n", r"\n")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {family.get('type', 'gauge')}")
        for labels, value in family["samples"]:
            if labels:
                rendered = ",".join(
                    '{}="{}"'.format(
                        key,
                        str(val).replace("\\", r"\\").replace('"', r'\"')
                                .replace("\n", r"\n"))
                    for key, val in sorted(labels.items()))
                lines.append(f"{name}{{{rendered}}} {float(value):g}")
            else:
                lines.append(f"{name} {float(value):g}")
    return "\n".join(lines) + "\n"


class OpsServer:
    """The daemon's HTTP control surface (one asyncio server)."""

    def __init__(self, daemon, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.daemon = daemon
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def bound_port(self) -> int:
        """The port actually bound (use with ``port=0``)."""
        if self._server is None:
            return self.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, content_type, body = await self._respond(reader)
        except Exception:  # never let a broken request kill the server
            logger.exception("ops request failed")
            status, content_type, body = 500, "application/json", \
                json.dumps({"error": "internal error"}).encode()
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, str, bytes]:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return self._error(400, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return self._error(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        total = len(request_line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_REQUEST_BYTES:
                return self._error(413, "request too large")
            if line in (b"\r\n", b"\n", b""):
                break
            header = line.decode("latin-1")
            if ":" in header:
                key, _, value = header.partition(":")
                if key.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        return self._error(400, "bad Content-Length")
        if content_length > _MAX_REQUEST_BYTES:
            return self._error(413, "request too large")
        payload = None
        if content_length > 0:
            raw = await reader.readexactly(content_length)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                return self._error(400, f"invalid JSON body: {exc}")
        return await self._route(method, path, payload)

    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, payload
                     ) -> Tuple[int, str, bytes]:
        daemon = self.daemon
        loop = asyncio.get_running_loop()
        try:
            if method == "GET" and path == "/status":
                doc = await loop.run_in_executor(None, daemon.status)
                return self._json(200, doc)
            if method == "GET" and path == "/metrics":
                families = await loop.run_in_executor(
                    None, daemon.metric_families)
                text = render_metrics(families)
                return (200, "text/plain; version=0.0.4; charset=utf-8",
                        text.encode())
            if method == "GET" and path == "/result":
                doc = await loop.run_in_executor(
                    None, daemon.result_document)
                return self._json(200, doc)
            if method == "GET" and path == "/queries":
                return self._json(
                    200, {"queries": list(daemon.session.query_names)})
            if method == "POST" and path == "/queries":
                if payload is None:
                    raise OpsError(400, "POST /queries needs a JSON body")
                spec = payload.get("spec", payload) \
                    if isinstance(payload, dict) else payload
                doc = await loop.run_in_executor(None, daemon.add_query,
                                                 spec)
                return self._json(200, doc)
            if method == "DELETE" and path.startswith("/queries/"):
                name = path[len("/queries/"):]
                doc = await loop.run_in_executor(None, daemon.remove_query,
                                                 name)
                return self._json(200, doc)
            if method == "POST" and path == "/capacity":
                if not isinstance(payload, dict) \
                        or "cycles_per_second" not in payload:
                    raise OpsError(
                        400, 'POST /capacity needs {"cycles_per_second": N}')
                doc = await loop.run_in_executor(
                    None, daemon.set_capacity,
                    payload["cycles_per_second"])
                return self._json(200, doc)
            if method == "POST" and path == "/config":
                if payload is None:
                    raise OpsError(400, "POST /config needs a JSON body")
                doc = await loop.run_in_executor(None, daemon.apply_config,
                                                 payload)
                return self._json(200, doc)
            if method == "POST" and path == "/checkpoint":
                doc = await loop.run_in_executor(None,
                                                 daemon.checkpoint_now)
                return self._json(200, doc)
            if method == "POST" and path == "/shutdown":
                daemon.stop()
                return self._json(200, {"stopping": True})
        except OpsError as exc:
            return self._error(exc.status, str(exc))
        except ValueError as exc:
            return self._error(400, str(exc))
        except KeyError as exc:
            message = exc.args[0] if exc.args else str(exc)
            return self._error(404, str(message))
        except RuntimeError as exc:
            return self._error(409, str(exc))
        known = ("/status", "/metrics", "/result", "/queries", "/capacity",
                 "/config", "/checkpoint", "/shutdown")
        base = "/" + path.lstrip("/").split("/")[0]
        if base in known:
            return self._error(405, f"{method} not supported on {base}")
        return self._error(404, f"unknown path {path}")

    # ------------------------------------------------------------------
    @staticmethod
    def _json(status: int, document) -> Tuple[int, str, bytes]:
        body = json.dumps(_jsonable(document), indent=2).encode()
        return status, "application/json", body

    @staticmethod
    def _error(status: int, message: str) -> Tuple[int, str, bytes]:
        return (status, "application/json",
                json.dumps({"error": message}).encode())
