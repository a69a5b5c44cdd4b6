"""Compatibility shim, kept only for the benchmark ladder's ``perf.shm.*``
rungs: serve workers share surfaces through the archive's mmapped
sidecars (:func:`repro.perf.cache.fetch`), so those rungs now time that
archive hand-off (per-layer, ungated).  A benchmark change deletes this.
"""

from repro.perf import cache


def export_for_transfer(key, ess):
    return {"key": key}


def register_offer(offer):
    pass


def unlink_offer(offer):
    pass


def attach_if_offered(key, query, cost_model):
    return cache.fetch(key, query, cost_model)
