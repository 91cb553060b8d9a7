"""Dispatcher request handling that used to drift from the gateway's.

Each test pins one behaviour the fleet front door now shares with the
single-process gateway through the common HTTP core.
"""

from __future__ import annotations

import time
import urllib.error
import urllib.request

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.server import RoutingClient

ARCH = "tokyo6"
ROUTER = "sabre:seed=0"


def test_negative_wait_is_clamped_not_a_dead_shard(fleet_factory):
    """``?wait=-100`` is a zero-second poll, as on the gateway.

    A negative wait once became a negative proxy timeout: every attempt
    timed out and the client was told a healthy shard was restarting.
    """
    fleet = fleet_factory(workers=1)
    client = RoutingClient(port=fleet.port, client_id="poller",
                           retry_quota=0)
    ticket = client.submit(random_circuit(4, 6, seed=3),
                           architecture=ARCH, router=ROUTER)
    client.wait(ticket["job_id"], timeout=60)
    started = time.monotonic()
    status = client._request("GET", f"/v1/jobs/{ticket['job_id']}?wait=-100")
    assert status["status"] == "done"
    assert status["shard"] == 0
    assert time.monotonic() - started < 5.0
    counters = client.stats()["fleet"]["dispatcher"]
    assert counters["proxy_failures"] == 0
    assert counters["retried"] == 0


def test_deduplicated_resubmissions_do_not_fill_backpressure(fleet_factory):
    """Only a 202 opens work; dedup answers must not count toward the bound.

    With a slow health sweep the open-job estimate is not resynced during
    the test, so every miscounted 200 would stay on it.
    """
    fleet = fleet_factory(workers=1, max_pending=3, health_interval=5.0)
    client = RoutingClient(port=fleet.port, client_id="repeater",
                           retry_quota=0)
    circuit = random_circuit(4, 6, seed=4)
    ticket = client.submit(circuit, architecture=ARCH, router=ROUTER)
    client.wait(ticket["job_id"], timeout=60)
    for _ in range(5):
        again = client.submit(circuit, architecture=ARCH, router=ROUTER)
        assert again["deduplicated"] is True
    counters = client.stats()["fleet"]["dispatcher"]
    assert counters["dispatched"] == 1
    assert counters["rejected"] == 0


def test_non_json_body_spends_no_admission_token(fleet_factory):
    """The body is parsed before admission, as on the gateway."""
    fleet = fleet_factory(workers=1, rate=0.001, burst=1)
    request = urllib.request.Request(
        f"{fleet.url}/v1/jobs", data=b"not json at all",
        headers={"Content-Type": "application/json",
                 "X-Client-Id": "fumbler"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    with excinfo.value as error:
        assert error.code == 400
    client = RoutingClient(port=fleet.port, client_id="fumbler",
                           retry_quota=0)
    ticket = client.submit(random_circuit(4, 6, seed=5),
                           architecture=ARCH, router=ROUTER)
    assert ticket["deduplicated"] is False
