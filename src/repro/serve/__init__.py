"""repro.serve: zero-copy transport and the asyncio serving tier.

Two layers (``docs/serving.md``):

- the **transport** (:mod:`repro.serve.transport`,
  :mod:`repro.serve.ring`, :mod:`repro.serve.layout`,
  :mod:`repro.serve.workers`): shared-memory job/result rings with
  persistent warm workers, selected through the engine's
  :class:`~repro.serve.transport.TransportConfig` seam
  (:mod:`repro.serve.warm` only re-exports the cell specializer, which
  lives in :mod:`repro.engine.specialize`);
- the **front-end** (:mod:`repro.serve.server`,
  :mod:`repro.serve.admission`, :mod:`repro.serve.quota`,
  :mod:`repro.serve.client`): the asyncio ``gendp-serve`` service with
  admission control, backpressure, priority classes and per-tenant
  quotas.
"""

from repro.serve.admission import (
    PRIORITY_CLASSES,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.client import ReconnectPolicy, ServeClient
from repro.serve.quota import TenantQuotas, TokenBucket
from repro.serve.server import GendpServer, ServeConfig
from repro.serve.transport import BACKENDS, ShmExecutor, TransportConfig

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BACKENDS",
    "GendpServer",
    "PRIORITY_CLASSES",
    "ReconnectPolicy",
    "ServeClient",
    "ServeConfig",
    "ShmExecutor",
    "TenantQuotas",
    "TokenBucket",
    "TransportConfig",
]
