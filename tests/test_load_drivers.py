"""The one load-driver core: pinned traffic and no hang on client failure.

``serve``, ``gateway`` and ``chaos`` all run on one
:class:`~repro.service.loadgen.LoadSpec`, one op log
(:func:`~repro.service.loadgen.op_log`) and one client loop
(:func:`~repro.service.loadgen.run_clients`).  The digests below were
captured from the separate in-process and wire generators that the op
log replaced, so they prove every driver still sends the same traffic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading

from repro import obs
from repro.api import make_gateway
from repro.chaos import ChaosSpec, run_chaos_load
from repro.cli import main
from repro.errors import ConnectionLostError
from repro.gateway import ResilientGatewayClient, TenantSpec, loadtest
from repro.gateway.loadtest import run_loopback_load
from repro.hashing.fields import FileSystem
from repro.service.loadgen import LoadSpec, op_log

# sha256 over the op logs below, as the in-process and wire generators
# wrote them before they were merged.
IN_PROCESS_DIGEST = (
    "29fe364cb383c24f5832030b8614e9b1d37f2c6f2b113361f68bf132f244fda6"
)
WIRE_DIGEST = (
    "8b8323d0e6be6d2d67b7e1ea59b2fb42b5795d187660723041a8483276cca78c"
)

# `make chaos`'s `repro chaos` run and its full canonical digest.
MAKEFILE_CHAOS = [
    "chaos", "--fields", "8,8", "--devices", "8",
    "--tenants", "alpha,beta", "--connections", "2", "--requests", "12",
    "--fault-rate", "0.06", "--crash-at", "0.5", "--torn-tail",
]
MAKEFILE_CHAOS_DIGEST = (
    "ccea522fbe41ebd63f39b5e136d38b3d51bc100bae9a75072268ecc328c24930"
)


def _items(query) -> list:
    pairs = query.items() if isinstance(query, dict) else query.specified_items()
    return sorted(pairs)


def _canonical(ops) -> list:
    out = []
    for kind, payload in ops:
        if kind == "insert":
            out.append([kind, list(payload)])
        elif kind == "batch":
            out.append([kind, [_items(query) for query in payload]])
        else:
            out.append([kind, _items(payload)])
    return out


def _op_log_digests() -> tuple[str, str]:
    """Digests of the in-process and wire op logs for seeds 0-3 with the
    write, batch and hot mixes each on and off."""
    fs = FileSystem.of(8, 8, m=8)
    in_process, wire = [], []
    mixes = itertools.product(range(4), (0, 3), (0, 5), (0.0, 0.4))
    for seed, write_every, batch_every, hot in mixes:
        spec = LoadSpec(
            clients=2, requests_per_client=12, seed=seed,
            write_every=write_every, batch_every=batch_every,
            hot_fraction=hot,
        )
        key = [seed, write_every, batch_every, hot]
        if not batch_every:
            for client in range(2):
                ops = _canonical(op_log(fs, spec, client))
                in_process.append(key + [client, ops])
        for tenant in ("alpha", "beta"):
            for connection in range(2):
                ops = _canonical(op_log(fs, spec, connection, tenant))
                wire.append(key + [tenant, connection, ops])
    return tuple(
        hashlib.sha256(
            json.dumps(logs, separators=(",", ":")).encode()
        ).hexdigest()
        for logs in (in_process, wire)
    )


def test_op_logs_match_the_pinned_digests():
    assert _op_log_digests() == (IN_PROCESS_DIGEST, WIRE_DIGEST)


def test_makefile_chaos_run_prints_the_pinned_digest(capsys):
    obs.reset_telemetry()
    assert main(MAKEFILE_CHAOS + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["canonical_digest"] == MAKEFILE_CHAOS_DIGEST
    assert (data["ops"], data["retries"], data["violations"]) == (48, 13, [])


# ----------------------------------------------------------------------
# No client failure may hang a load run
# ----------------------------------------------------------------------
def _finishes(run, timeout_s: float = 30.0):
    """Run *run* on a daemon thread; fail, not hang, if it never returns."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(report=run()), daemon=True
    )
    thread.start()
    thread.join(timeout=timeout_s)
    assert not thread.is_alive(), f"the load run hung for {timeout_s} s"
    return outcome["report"]


def test_loopback_connect_failure_is_reported_not_hung(monkeypatch):
    gateway = make_gateway(["alpha"], fields=(4, 4), devices=4)
    address = gateway.start()
    real = loadtest.GatewayClient
    refused = []

    def one_refused(*args, **kwargs):
        # Only the load's connections pass fields; refuse the first.
        if kwargs.get("fields") is not None and not refused:
            refused.append(True)
            raise ConnectionLostError("connection refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(loadtest, "GatewayClient", one_refused)
    spec = LoadSpec(clients=2, requests_per_client=6, write_every=3)
    try:
        report = _finishes(
            lambda: run_loopback_load(
                address, list(gateway.tenants.values()), spec
            )
        )
    finally:
        gateway.close()
    [error] = report.errors
    assert "connect failed" in error and "ConnectionLostError" in error
    assert report.per_tenant["alpha"].errors == [error]
    # The other connection ran its whole log, and it verifies.
    assert report.per_tenant["alpha"].completed == 6
    assert report.verify() == {"alpha": []}


def test_chaos_unclassified_error_is_reported_not_hung(monkeypatch):
    real = ResilientGatewayClient.query
    raised = []

    def breaks_once(self, *args, **kwargs):
        if not raised:
            raised.append(True)
            raise KeyError("unclassified")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ResilientGatewayClient, "query", breaks_once)
    spec = ChaosSpec(
        load=LoadSpec(clients=2, requests_per_client=8, write_every=3),
        crash_at=0.5,
    )
    report = _finishes(
        lambda: run_chaos_load([TenantSpec.of("alpha", (4, 4), 4)], spec)
    )
    [error] = report.errors
    assert "KeyError" in error
    assert error in report.verify()
    assert report.crashes == 1
    # the stopped client's unrun ops count against availability
    assert (report.total_ops, report.ok_ops) == (16, 8)
    assert report.availability == 0.5
