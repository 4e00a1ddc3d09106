"""Socket buffers.

Two flavours matter to the paper:

* **Receive skbuffs** own kernel pages; the NIC DMAs incoming frame data
  into them.  Because they are allocated before anyone knows which message
  the data belongs to, the payload must later be *copied* to its real
  destination — the copy this whole paper is about.
* **Transmit skbuffs** may carry *page fragments*: references to pinned
  user pages attached without copying ("attach user-level physical pages to
  skbuffs in order to achieve zero-copy", §II-A), so the send side is cheap.

The pool tracks outstanding buffers; tests assert it drains back to zero
(no skbuff leaks, incl. the deferred-release path of §III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.memory.buffers import AddressSpace, MemoryRegion
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ethernet.frame import EthernetFrame


@dataclass
class PageFrag:
    """A zero-copy reference to bytes in a (pinned) user region."""

    region: MemoryRegion
    offset: int
    length: int


class Skbuff:
    """One socket buffer."""

    __slots__ = ("pool", "head", "data_len", "frags", "frame", "freed")

    def __init__(self, pool: "SkbuffPool", head: Optional[MemoryRegion]):
        self.pool = pool
        #: linear kernel-page buffer (receive data lands here)
        self.head = head
        #: valid bytes in ``head``
        self.data_len = 0
        #: zero-copy page fragments (transmit path)
        self.frags: list[PageFrag] = []
        #: the frame this skbuff was received from / will be sent as
        self.frame: Optional["EthernetFrame"] = None
        self.freed = False

    @property
    def total_len(self) -> int:
        """Linear bytes plus fragment bytes."""
        return self.data_len + sum(f.length for f in self.frags)

    def add_frag(self, region: MemoryRegion, offset: int, length: int) -> None:
        """Attach user pages without copying (zero-copy transmit)."""
        if length <= 0:
            raise ValueError("fragment length must be positive")
        self.frags.append(PageFrag(region, offset, length))

    def free(self) -> None:
        """Return the buffer to its pool.  Double-free is an error."""
        if self.freed:
            raise RuntimeError("skbuff double free")
        self.freed = True
        self.pool._on_free(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Skbuff len={self.total_len} frags={len(self.frags)} "
            f"{'FREED' if self.freed else 'live'}>"
        )


class SkbuffPool:
    """Kernel skbuff allocator with outstanding-buffer accounting."""

    def __init__(self, kernel_space: AddressSpace, buf_pages: int = 3):
        self.space = kernel_space
        #: pages per receive buffer (jumbo frame needs 3 × 4 kB)
        self.buf_pages = buf_pages
        self._free: list[MemoryRegion] = []
        #: currently-live skbuffs (allocated, not yet freed)
        self.outstanding = 0
        #: high-water mark of live skbuffs (bounds §III-B's pending pool)
        self.peak_outstanding = 0
        self.total_allocated = 0
        #: optional :class:`repro.analysis.sanitizers.Sanitizer` hook; when
        #: set, it is notified of every alloc/free (leak tracking)
        self.observer = None

    def alloc_rx(self) -> Skbuff:
        """A receive skbuff with linear kernel pages."""
        region = self._free.pop() if self._free else self.space.alloc_pages(self.buf_pages)
        return self._track(Skbuff(self, region))

    def alloc_rx_many(self, n: int) -> list[Skbuff]:
        """``n >= 1`` receive skbuffs, exactly as ``n`` :meth:`alloc_rx`
        calls would hand them out (free list first, LIFO, then fresh pages)
        but with one address-space bump.  Not reported to ``observer``:
        watched pools must allocate one :meth:`alloc_rx` at a time."""
        free = self._free
        if n <= len(free):
            regions = free[-n:]
            del free[-n:]
            regions.reverse()
        else:
            regions = free[::-1]
            free.clear()
            regions += self.space.alloc_pages_many(self.buf_pages, n - len(regions))
        count = self.outstanding + n
        self.outstanding = count
        self.total_allocated += n
        if count > self.peak_outstanding:
            self.peak_outstanding = count
        return [Skbuff(self, region) for region in regions]

    def alloc_tx(self) -> Skbuff:
        """A transmit skbuff (headers only; data rides in page frags)."""
        return self._track(Skbuff(self, None))

    def _track(self, skb: Skbuff) -> Skbuff:
        n = self.outstanding + 1
        self.outstanding = n
        self.total_allocated += 1
        if n > self.peak_outstanding:
            self.peak_outstanding = n
        if self.observer is not None:
            self.observer.on_skb_alloc(self, skb)
        return skb

    def _on_free(self, skb: Skbuff) -> None:
        self.outstanding -= 1
        if skb.head is not None:
            self._free.append(skb.head)
        if self.observer is not None:
            self.observer.on_skb_free(self, skb)
