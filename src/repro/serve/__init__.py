"""Sweep-as-a-service: persistent daemon, admission control, verdict cache.

See :doc:`docs/SERVING.md` for the API, the cache keying, and the
determinism contract.  The fast path: :class:`SweepService` runs jobs on
the existing engines with a :class:`CacheSession` plugged in as the
verdict journal, so re-submitted or lightly-edited netlists replay every
verdict whose cone signatures match and solve only the delta.  The
cache is the daemon's spill of the one verdict store in
:mod:`repro.runtime.journal` (a sweep's ``--journal`` is the other);
``CacheSession`` is that store's session class.
"""

from repro.serve.admission import AdmissionQueue, ClientBudget
from repro.serve.cache import CacheSession, VerdictCache, fingerprint_key
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import (
    CONFIG_DEFAULTS,
    SweepService,
    build_server,
    run_server,
)

__all__ = [
    "AdmissionQueue",
    "CacheSession",
    "ClientBudget",
    "CONFIG_DEFAULTS",
    "ServeClient",
    "ServeError",
    "SweepService",
    "VerdictCache",
    "build_server",
    "fingerprint_key",
    "run_server",
]
