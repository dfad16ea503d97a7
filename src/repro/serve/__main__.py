"""The serve daemon: ``python -m repro.serve`` (JSON-lines over TCP).

Boots a :class:`~repro.serve.service.DecompositionService`, binds a TCP
listener, and prints ``serve: listening on HOST:PORT`` once ready (with
``--port 0`` the OS picks the port — parse it from that line, as
``tools/serve_smoke.py`` does). Each connection may send any number of
newline-delimited JSON requests; every request gets exactly one
newline-delimited JSON response with an ``ok`` flag. Typed failures
carry the error class name, so clients can distinguish a
``QuotaExceededError`` admission refusal from a runtime failure.

Ops: ``ping``, ``submit`` (spec payload; see
:mod:`repro.serve.wire`), ``status``, ``result`` (blocks until the job
finishes), ``cancel``, ``preempt``, ``stats``, ``shutdown`` (drains,
closes the pool, replies with final counters + hygiene, exits).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, Optional

from ..runtime.context import EXECUTIONS
from .jobs import ServeError, TenantQuota
from .service import DecompositionService
from .wire import result_to_wire, spec_from_wire


def _parse_quota(text: str) -> tuple:
    # "tenant=BYTES" (admission + budget limit for that tenant)
    tenant, _, raw = text.partition("=")
    if not tenant or not raw:
        raise argparse.ArgumentTypeError(
            f"expected TENANT=BYTES, got {text!r}"
        )
    return tenant, TenantQuota(memory_bytes=int(raw))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Decomposition service daemon (JSON-lines over TCP).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    parser.add_argument("--execution", default="serial", choices=EXECUTIONS)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--pool", type=int, default=2, help="scheduler slots")
    parser.add_argument(
        "--quota",
        action="append",
        type=_parse_quota,
        default=[],
        metavar="TENANT=BYTES",
        help="per-tenant memory quota (repeatable)",
    )
    parser.add_argument(
        "--default-quota-bytes",
        type=int,
        default=None,
        help="memory quota for tenants without an explicit --quota",
    )
    parser.add_argument("--cache-capacity", type=int, default=128)
    return parser


class _Daemon:
    def __init__(self, service: DecompositionService) -> None:
        self.service = service
        self.shutdown = asyncio.Event()
        self.final: Optional[Dict[str, Any]] = None

    async def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        service = self.service
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            spec = spec_from_wire(request["spec"])
            job_id = await service.submit(spec)
            status = service.status(job_id)
            return {"ok": True, "job_id": job_id, "state": status.state,
                    "cache_hit": status.cache_hit}
        if op == "status":
            return {"ok": True, "status": service.status(request["job_id"]).to_dict()}
        if op == "result":
            job_id = request["job_id"]
            result = await service.result(job_id)
            status = service.status(job_id)
            return {
                "ok": True,
                "status": status.to_dict(),
                "result": result_to_wire(status.kind, result),
            }
        if op == "cancel":
            return {"ok": True, "cancelled": service.cancel(request["job_id"])}
        if op == "preempt":
            return {"ok": True, "preempted": service.preempt(request["job_id"])}
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "shutdown":
            counters = await service.close(drain=request.get("drain", True))
            reply = {
                "ok": True,
                "counters": counters,
                "hygiene": service.hygiene(),
            }
            self.final = reply
            self.shutdown.set()
            return reply
        return {"ok": False, "error": "ProtocolError", "message": f"unknown op {op!r}"}

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    response = await self.handle_request(request)
                except ServeError as exc:
                    response = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                except Exception as exc:  # malformed request / job failure
                    response = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if self.shutdown.is_set():
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass


async def amain(argv=None) -> int:
    args = build_parser().parse_args(argv)
    service = DecompositionService(
        execution=args.execution,
        n_workers=args.workers,
        pool_size=args.pool,
        quotas=dict(args.quota),
        default_quota=TenantQuota(memory_bytes=args.default_quota_bytes),
        cache_capacity=args.cache_capacity,
    )
    await service.start()
    daemon = _Daemon(service)
    server = await asyncio.start_server(
        daemon.handle_connection, host=args.host, port=args.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    print(f"serve: listening on {host}:{port}", flush=True)
    try:
        await daemon.shutdown.wait()
    finally:
        server.close()
        await server.wait_closed()
        if not service._closed:
            await service.close()
    hygiene = daemon.final["hygiene"] if daemon.final else service.hygiene()
    print(
        "serve: shutdown clean "
        f"(budgets_undrained={hygiene['budgets_undrained']}, "
        f"live_segments={hygiene['live_segments']})",
        flush=True,
    )
    return 0 if hygiene["budgets_undrained"] == 0 else 1


def main(argv=None) -> int:
    try:
        return asyncio.run(amain(argv))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130


if __name__ == "__main__":
    sys.exit(main())
