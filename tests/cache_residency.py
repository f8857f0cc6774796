"""Cache residency as comparable lists, read from ``(tags, cnt)`` blocks.

A residency block holds ``assoc`` tag slots per set (MRU first) followed
by each set's count of valid ways.  Slots past a set's count carry no
residency, so the helpers read only each set's live tags.
"""

from __future__ import annotations


def live_tags(block, assoc: int) -> list[list[int]]:
    """Each set's live tags, MRU first, from one level's block."""
    n = len(block) // (assoc + 1) * assoc
    rows = block[:n].reshape(-1, assoc).tolist()
    return [row[:count] for row, count in zip(rows, block[n:].tolist())]


def residency(cache) -> list[list[list[int]]]:
    """Both levels' live tags per set (either form; the form is unchanged)."""
    return [
        live_tags(level.snapshot(), level.config.assoc)
        for level in (cache.l1, cache.l2)
    ]


def snapshot_residency(snapshot, config) -> list[list[list[int]]]:
    """Both levels' live tags per set from an ``(l1, l2)`` block snapshot."""
    l1, l2 = snapshot
    return [live_tags(l1, config.l1d_assoc), live_tags(l2, config.l2_assoc)]
