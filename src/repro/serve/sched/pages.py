"""Fixed-size KV page pool: k1-aligned pages with checkout/release accounting.

The BDR decode cache (:mod:`repro.nn.decode`) already stores V in k1-aligned
level-1 blocks — sealed blocks are frozen forever and only the open tail
requantizes.  A **page** here is exactly one such block of one attention
layer of one sequence: ``page_size`` consecutive columns of arenas laid out
along the sequence axis, holding V rows, the matching pre-transposed K
columns and a raw-tail staging area.  Because a sealed block's payload
never changes, pages need no copy-on-write: a sequence's history is fully
described by its page table, reclamation is "return the page numbers", and
a freshly checked-out page may hold stale bytes (readers only ever touch
the rows a cache has written).

The pool is the *only* shared-memory object in the continuous-batching
scheduler, so it owns its own lock: ``stats()`` snapshots are safe to take
from ``health()`` even while the session watchdog is mid-replacement.
Checkout is atomic — ``checkout_pages(owner, n)`` either returns ``n`` pages
or raises :class:`PoolExhausted` having taken none, so a cache can never be
left half-grown.
"""

from __future__ import annotations

import threading

import numpy as np

from ..faults import ServingError

__all__ = ["PagePool", "PoolExhausted"]


class PoolExhausted(ServingError):
    """The pool cannot supply the requested pages (admission/growth denied)."""


class PagePool:
    """Preallocated KV page arenas plus per-owner checkout accounting.

    The arenas run along the sequence axis, page ``p`` being columns
    ``[p * page_size, (p + 1) * page_size)``: ``kT`` holds pre-transposed K
    ``(H, head_dim, pages * page_size)``, ``v`` the quantized V payloads
    and ``v_raw`` the raw open-tail rows awaiting requantization (both
    ``(H, pages * page_size, head_dim)``), so a cache whose pages form one
    ascending run reads its history as a view.  Owners are opaque strings
    (one per decode stream); ``release_all(owner)`` is the eviction path —
    O(pages held), no data movement.
    """

    def __init__(self, num_heads: int, head_dim: int, page_size: int, total_pages: int):
        if page_size < 1 or total_pages < 1:
            raise ValueError(
                f"PagePool needs positive page_size/total_pages; got "
                f"{page_size}/{total_pages}"
            )
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.page_size = page_size
        self.total_pages = total_pages
        columns = total_pages * page_size
        self.kT = np.zeros((num_heads, head_dim, columns))
        self.v = np.zeros((num_heads, columns, head_dim))
        self.v_raw = np.zeros((num_heads, columns, head_dim))
        self._lock = threading.Lock()
        # LIFO free list: recently released pages are likely cache-warm
        self._free = list(range(total_pages - 1, -1, -1))
        self._owned: dict[str, set[int]] = {}
        self._checkouts = 0
        self._releases = 0
        self._high_water = 0
        # largest page count any one owner has held; a scalar, so serving
        # many distinct owners leaves no per-owner state behind
        self._per_stream_high_water = 0

    # ------------------------------------------------------------------
    def checkout_pages(self, owner: str, n: int) -> list[int]:
        """Atomically take ``n`` pages for ``owner`` (all or nothing)."""
        if n < 0:
            raise ValueError(f"cannot checkout {n} pages")
        with self._lock:
            if n > len(self._free):
                raise PoolExhausted(
                    f"pool exhausted: {owner!r} wants {n} pages, "
                    f"{len(self._free)} of {self.total_pages} free"
                )
            pages = [self._free.pop() for _ in range(n)]
            held = self._owned.setdefault(owner, set())
            held.update(pages)
            self._checkouts += n
            used = self.total_pages - len(self._free)
            self._high_water = max(self._high_water, used)
            self._per_stream_high_water = max(self._per_stream_high_water, len(held))
            return pages

    def checkout_page(self, owner: str) -> int:
        """Take a single page for ``owner`` (raises :class:`PoolExhausted`)."""
        return self.checkout_pages(owner, 1)[0]

    def release_pages(self, owner: str, pages) -> None:
        """Return specific ``pages`` held by ``owner`` to the free list.

        Raises :class:`ValueError`, changing nothing, when a page is not
        held by ``owner`` or appears twice (a repeat would sit on the free
        list twice and later go to two owners at once).
        """
        pages = list(pages)
        with self._lock:
            held = self._owned.get(owner, set())
            for page in pages:
                if page not in held:
                    raise ValueError(f"{owner!r} does not hold page {page}")
            if len(set(pages)) != len(pages):
                raise ValueError(f"{owner!r} releases a page twice: {pages}")
            held.difference_update(pages)
            # pushed descending, so a checkout of as many pops them back
            # ascending: one run, which a cache reads as a view
            self._free.extend(sorted(pages, reverse=True))
            self._releases += len(pages)
            if not held:
                self._owned.pop(owner, None)

    def release_page(self, owner: str, page: int) -> None:
        """Return one page held by ``owner``."""
        self.release_pages(owner, (page,))

    def release_all(self, owner: str) -> int:
        """Return every page held by ``owner``; returns how many."""
        with self._lock:
            held = self._owned.pop(owner, set())
            self._free.extend(sorted(held, reverse=True))  # see release_pages
            self._releases += len(held)
            return len(held)

    # ------------------------------------------------------------------
    def pages_free(self) -> int:
        with self._lock:
            return len(self._free)

    def pages_held(self, owner: str) -> int:
        with self._lock:
            return len(self._owned.get(owner, ()))

    def leaked(self) -> dict[str, int]:
        """Owners still holding pages (should be empty after close)."""
        with self._lock:
            return {owner: len(held) for owner, held in self._owned.items() if held}

    def stats(self) -> dict:
        """Occupancy/churn snapshot under the pool's own lock only."""
        with self._lock:
            used = self.total_pages - len(self._free)
            return {
                "page_size": self.page_size,
                "pages_total": self.total_pages,
                "pages_free": len(self._free),
                "pages_used": used,
                "high_water": self._high_water,
                "per_stream_high_water": self._per_stream_high_water,
                "checkouts": self._checkouts,
                "releases": self._releases,
                "owners": len(self._owned),
            }
