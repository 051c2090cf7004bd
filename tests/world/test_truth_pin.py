"""Bit-for-bit pin of the session ground truth.

Ground truth feeds every engine, so any change in how it is built -- the
order a collector lists its sessions, how BGP weights are folded onto
clients and replicas -- must leave it identical.  The digest covers every
array field of :class:`~repro.world.faults.GroundTruth`, every
``BGPUpdate`` in the archive (in archive order), every instability event,
and the prefix maps.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.world.faults import GroundTruth

#: ``truth_digest`` of the session ``truth`` fixture (168 h, seed
#: 20050102), computed on the scan-based collector before the per-prefix
#: route index replaced it.
PINNED_TRUTH_DIGEST = (
    "811c1d406453e797aa63a5f724925287c20f5d6388ce4f39e055db17d5c71b49"
)


def _prefix_text(prefix) -> str:
    return f"{prefix.network}/{prefix.length}"


def truth_digest(truth: GroundTruth) -> str:
    """SHA-256 over the arrays, BGP archive, events and prefix maps."""
    h = hashlib.sha256()
    for f in dataclasses.fields(truth):
        value = getattr(truth, f.name)
        if isinstance(value, np.ndarray):
            h.update(f"{f.name}:{value.dtype.str}:{value.shape}:".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    for u in truth.bgp_archive.updates:
        h.update(
            f"u:{u.timestamp!r}:{u.session_id}:{_prefix_text(u.prefix)}:"
            f"{u.kind.value}:{u.as_path}\n".encode()
        )
    for e in truth.bgp_events:
        h.update(
            f"e:{_prefix_text(e.prefix)}:{e.start!r}:{e.duration!r}:"
            f"{e.path_fail_fraction!r}:{e.withdrawing_sessions}:{e.kind}\n".encode()
        )
    for name, prefix in sorted(truth.prefix_of_client.items()):
        h.update(f"c:{name}:{_prefix_text(prefix)}\n".encode())
    for (site, ri), prefix in sorted(truth.prefix_of_replica.items()):
        h.update(f"r:{site}:{ri}:{_prefix_text(prefix)}\n".encode())
    return h.hexdigest()


def test_session_truth_is_pinned(truth):
    assert len(truth.bgp_archive) > 0 and truth.bgp_events
    assert truth_digest(truth) == PINNED_TRUTH_DIGEST
