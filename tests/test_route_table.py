"""Both serving tiers answer from one declared route table: for every
route, the wrong method is a 405 naming the right one, and an
undeclared path is a 404 — on the design server and on the fleet
router alike."""

import json
import socket

import pytest

from repro.service import (BatchEngine, RouterThread, ServerThread,
                           ServiceClient)
from repro.service.router import DesignRouter
from repro.service.server import DesignServer, HttpServerBase

#: the protocol's endpoints and their one allowed method
ENDPOINTS = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/metrics/history": "GET",
    "/trace": "GET",
    "/debug/profile": "GET",
    "/backends": "GET",
    "/generate": "POST",
    "/batch": "POST",
    "/explore": "POST",
    "/jobs": "GET",
}


def _dead_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


@pytest.fixture(scope="module", params=["server", "router"])
def tier(request):
    if request.param == "server":
        handle = ServerThread(BatchEngine(cache=None),
                              history_interval_s=0)
    else:
        # 405s and 404s are answered before any forward, so a router
        # in front of a dead backend (prober off) is enough
        handle = RouterThread([_dead_url()], probe_interval_s=0,
                              history_interval_s=0)
    handle.start()
    yield handle
    handle.stop()


def _ask(url: str, method: str, path: str) -> tuple[int, dict]:
    with ServiceClient.from_url(url, retries=0) as client:
        status, raw = client.roundtrip(method, path)
    return status, json.loads(raw.decode())


def test_table_declares_the_protocol():
    assert {path: method for path, (method, _handler)
            in HttpServerBase.routes.items()} == ENDPOINTS


@pytest.mark.parametrize("cls", [DesignServer, DesignRouter])
def test_every_declared_handler_exists(cls):
    for _method, handler in HttpServerBase.routes.values():
        assert callable(getattr(cls, handler, None)), \
            f"{cls.__name__} lacks {handler}"


@pytest.mark.parametrize("path", sorted(ENDPOINTS))
def test_wrong_method_is_405_naming_the_right_one(tier, path):
    method = ENDPOINTS[path]
    for wrong in sorted({"GET", "POST", "DELETE"} - {method}):
        assert _ask(tier.url, wrong, path) == (
            405, {"error": f"use {method} {path}"})


@pytest.mark.parametrize("path", ["/nope", "/healthz/extra",
                                  "/jobs/a/b/c"])
def test_unknown_path_is_404(tier, path):
    assert _ask(tier.url, "GET", path) == (
        404, {"error": f"no such endpoint: {path}"})
