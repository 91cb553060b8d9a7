"""Network serving for the routing service: gateway, protocol, client.

This subsystem puts a request-lifecycle layer in front of
:class:`~repro.service.BatchRoutingService` so callers no longer have to
live in the same Python process:

* :mod:`repro.server.protocol` -- the versioned JSON wire schemas, built on
  the library's canonical forms (``RouterSpec.to_dict``, canonical QASM,
  the job content hash) so identical requests from different clients
  deduplicate into one solve;
* :mod:`repro.server.admission` -- token-bucket quotas per client plus a
  global pending-work bound; overload degrades to 429 + ``Retry-After``;
* :mod:`repro.server.http` -- the HTTP server core shared with the cluster
  dispatcher: one connection loop and route table, the common inquiry
  endpoints and drain, :func:`serve` (SIGTERM/SIGINT drain) and the
  daemon-thread runner behind ``GatewayThread`` and ``FleetThread``;
* :mod:`repro.server.app` -- the stdlib asyncio JSON-over-HTTP gateway:
  submit / poll / long-poll / fetch-result job lifecycle, registry and
  device listings, ``/metrics``, and graceful drain on SIGTERM;
* :mod:`repro.server.client` -- a small blocking :class:`RoutingClient`
  used by ``repro submit``, the examples, and the tests.

Quick round trip (in-process server thread)::

    from repro.server import GatewayThread, RoutingClient

    with GatewayThread() as gw:
        client = RoutingClient(port=gw.port)
        result = client.route(circuit, architecture="tokyo8",
                              router="sabre:seed=1")
"""

from repro.server.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.server.app import GatewayThread, JobRecord, RoutingGateway
from repro.server.http import serve
from repro.server.client import QuotaExceededError, RoutingClient, ServerError
from repro.server.protocol import WIRE_VERSION, ProtocolError

__all__ = [
    "RoutingGateway",
    "GatewayThread",
    "JobRecord",
    "serve",
    "RoutingClient",
    "ServerError",
    "QuotaExceededError",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "ProtocolError",
    "WIRE_VERSION",
]
