"""The daemon's verdict cache: the cache spill of the one verdict store.

:class:`VerdictCache` (an LRU memory tier bounded by encoded bytes, with
an optional CRC-framed file a restarted daemon reloads) and the
per-job session it hands out (``CacheSession``, the same
:class:`~repro.runtime.journal.VerdictSession` a sweep journal is) live
in :mod:`repro.runtime.journal`; this module keeps the names the serving
layer has always imported.
"""

from repro.runtime.journal import VerdictCache, fingerprint_key
from repro.runtime.journal import VerdictSession as CacheSession

__all__ = ["CacheSession", "VerdictCache", "fingerprint_key"]
