"""Last-level cache model.

The paper's testbed has a 12 MB shared LLC.  For key-value records the
dominant cache effect is whole-record reuse: a record that was recently
served again is (partially) resident, so a repeat access avoids the memory
round trip.  We model this with an exact LRU over records, capped by
capacity in bytes.  Records larger than the cache never hit.

:meth:`LLCModel.access` is the model — a dict LRU (CPython's
insertion-ordered dict: re-insertion == move-to-back) — and the
reference every test compares against.  :meth:`LLCModel.process` replays
a whole trace; on a cold cache with per-key-constant sizes (every
generated trace) it runs no per-request Python but one vectorized pass
over the LRU **eviction frontier**, bit-identical to the loop.

The frontier
------------
Let ``prev[i]`` / ``nxt[i]`` be the previous / next request to request
``i``'s key, ``eff[i]`` its size if it fits the capacity and 0 if not
(oversized records are bypassed and displace nothing), and call position
``j`` *live* at time ``t`` when ``j <= t < nxt[j]`` — the latest touch of
its key.  The distinct records last touched in ``[x, t]`` then hold
``F(x, t) = sum of eff[j] over live j in [x, t]`` bytes.  An LRU evicts
only from the cold end of its recency order, so after request ``t`` the
resident set is exactly the records last touched at or after
``T(t) = min{x : F(x, t) <= capacity}``.  ``F(x, .)`` never decreases (a
request re-touches a record already inside ``[x, t]`` or adds bytes), so
neither does ``T``, and request ``i`` hits iff its record fits,
``prev[i] >= 0`` and ``prev[i] >= T(i - 1)`` — the byte-weighted
stack-distance rule ``F(prev[i], i - 1) <= capacity``, read from the
eviction side.

The pass (:func:`lru_hit_mask`)
-------------------------------
1. One sort gives ``prev`` and ``nxt`` (:func:`_occurrences`).  First
   touches accumulate the working set: if it fits, nothing is evicted
   and every fitting repeat hits.  Otherwise the request at which it
   first overflows seeds the *span* — how far the frontier may trail.
2. The trace is cut into ``g``-request chunks, ``g`` the smallest power
   of two (>= 32) with ``2 * g * g >= span``, so the band of
   ``m = span / g + 2`` chunks keeps the table below within about
   ``2 * n`` cells whatever the capacity.  One weighted ``bincount`` and
   two cumsums (:func:`_band_table`) give
   ``R[c, d] = F((c - d) * g, c * g - 1)``, the live bytes the last ``d``
   chunks hold at chunk boundary ``c``.  If a row is still within the
   capacity at the band's edge the span doubles and the table is rebuilt.
3. ``R`` brackets ``T`` at every boundary to one chunk; a suffix sum over
   that chunk's ``g`` positions gives it **exactly** (``n`` cells in all).
4. ``T(i - 1)`` lies between its chunk's two boundary values: ``prev[i]``
   at or above the upper one hits, below the lower one misses.  Only a
   ``prev`` inside the chunk's own frontier advance is undecided (under
   2 % of requests on the benchmark specs); each is settled exactly as
   ``F(prev[i], i - 1) <= capacity`` from one table cell and two scans of
   at most ``g`` cells — ``prev[i]`` up to its next grid point (what is
   still live at the chunk start) and the chunk's own prefix (records
   unseen since ``prev[i]``) — in fixed-size slabs.
5. ``T(n - 1)`` is the end state: the live fitting positions at or after
   it, in position order, are the resident records LRU -> MRU.

One sort plus O(n) NumPy work, O(n * g) = O(n * sqrt(span)) when every
request is undecided (a cyclic scan one record over capacity), O(n)
scratch always; measurements in ``docs/KERNEL.md``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ConfigurationError
from repro.units import MB

#: Smallest chunk length of the frontier pass, in requests.
_GRID = 32
#: Cells (requests x chunk columns) the residue settles per slab.
_SLAB_CELLS = 1 << 16


def _occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, nxt)``: each request's previous / next access to its key.

    ``prev`` is -1 at a first touch, ``nxt`` is ``n`` at a last one (both
    int64).  One in-place sort of ``(key - min) << bits | index`` words
    orders requests by key, then position; keys that are not integers or
    do not pack beside the index take a stable argsort instead.
    """
    n = keys.size
    if n < 2:
        return np.full(n, -1, dtype=np.int64), np.full(n, n, dtype=np.int64)
    bits = (n - 1).bit_length()
    packs = keys.dtype.kind in "iu" and np.can_cast(keys.dtype, np.int64)
    low = int(keys.min()) if packs else 0
    if packs and (int(keys.max()) - low) >> (62 - bits) == 0:
        words = keys.astype(np.int64)
        words -= low
        words <<= bits
        words |= np.arange(n, dtype=np.int64)
        words.sort()
        order = words & ((1 << bits) - 1)
        words >>= bits
        same = words[1:] == words[:-1]
    else:
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        same = ranked[1:] == ranked[:-1]
    # neighbours in the sorted order are consecutive accesses to one key
    link = np.empty(n, dtype=np.int64)
    link[0] = -1
    link[1:] = np.where(same, order[:-1], -1)
    prev = np.empty(n, dtype=np.int64)
    prev[order] = link
    link[-1] = n
    link[:-1] = np.where(same, order[1:], n)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order] = link
    return prev, nxt


def _rows(flat: np.ndarray, chunks: int, g: int, fill) -> np.ndarray:
    """*flat* as a ``(chunks, g)`` matrix, the last row padded with *fill*."""
    pad = (0, chunks * g - flat.size)
    return np.pad(flat, pad, constant_values=fill).reshape(chunks, g)


def _band_table(
    nxt: np.ndarray, eff: np.ndarray, g: int, m: int, chunks: int,
) -> np.ndarray:
    """``R[c, d] = F((c - d) * g, c * g - 1)`` for ``c <= chunks, d <= m``.

    A position in chunk ``r`` whose next access is ``k`` boundaries away
    (clipped to ``m``) is live at boundaries ``r + 1 .. r + k``.
    ``bincount`` drops its bytes at row ``m + r``, column ``m - k``; a
    cumsum along the row turns "exactly ``k``" into "at least ``d``" at
    column ``m - d``.  What chunk ``c - d`` still holds at boundary ``c``
    now sits one diagonal step per ``d`` apart, so a strided view reads
    the diagonals as rows (the ``m`` empty rows on top keep it in bounds)
    and a second cumsum adds them up.  Sums are float64: exact below 2**53.
    """
    n = nxt.size
    cell = np.arange(n)
    cell //= g
    reach = nxt // g
    reach += nxt == n  # a last touch outlives the final boundary too
    reach -= cell
    np.minimum(reach, m, out=reach)
    cell *= m + 1
    cell += m * (m + 2)
    cell -= reach
    table = np.bincount(
        cell, weights=eff, minlength=(m + chunks + 1) * (m + 1),
    ).reshape(-1, m + 1)
    np.cumsum(table, axis=1, out=table)
    table[:, m] = 0.0  # d = 0: an empty range
    step, item = table.strides
    skewed = as_strided(
        table[m:, m:], shape=(chunks + 1, m + 1), strides=(step, -step - item),
        writeable=False,
    )
    return np.cumsum(skewed, axis=1)


def _frontier_pass(
    prev: np.ndarray, nxt: np.ndarray, sizes: np.ndarray, cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lru_hit_mask` proper, on validated inputs with ``n >= 1``."""
    n = prev.size
    fits = sizes <= cap
    hits = fits & (prev >= 0)
    eff = np.where(fits, sizes, 0.0)
    first = np.flatnonzero(prev < 0)
    touched = np.cumsum(eff[first])  # distinct bytes, at each first touch
    if touched[-1] <= cap:
        return hits, np.array([n - 1]), np.array([0])
    # where the cache first overflows is about how far the frontier trails
    # from then on; the loop widens the guess where locality drifts
    span = int(first[np.searchsorted(touched, cap, side="right")]) * 5 // 4
    while True:
        g = _GRID
        while 2 * g * g < span:
            g *= 2
        chunks = -(-n // g)
        m = min(span // g + 2, chunks)
        table = _band_table(nxt, eff, g, m, chunks)
        # row c is nondecreasing in d; its last cell within the capacity
        # brackets T(c * g - 1) inside chunk c - depth - 1
        depth = np.count_nonzero(table <= cap, axis=1) - 1
        bucket = np.arange(chunks + 1) - depth - 1
        if not ((depth == m) & (bucket >= 0)).any():
            break
        span *= 2
    eff_rows = _rows(eff, chunks, g, 0.0)
    prev_rows = _rows(prev, chunks, g, -1)
    nxt_rows = _rows(nxt, chunks, g, n)
    bound = np.minimum(np.arange(chunks + 1) * g, n)  # boundary c: t + 1
    # refine: walk the bracketing chunk from its right end while the
    # bytes still live at the boundary fit beside the table cell; a
    # boundary without a bucket still holds everything (T = 0)
    frontier = np.zeros(chunks + 1, dtype=np.int64)
    edge = np.flatnonzero(bucket >= 0)
    b = bucket[edge]
    live = eff_rows[b]
    live *= nxt_rows[b] >= bound[edge, None]
    tail = np.cumsum(live[:, ::-1], axis=1)
    room = (cap - table[edge, depth[edge]])[:, None]
    frontier[edge] = (b + 1) * g - np.count_nonzero(tail <= room, axis=1)
    # decide by chunk: T(i - 1) lies in [frontier[c], frontier[c + 1]]
    hit_rows = _rows(hits, chunks, g, False)
    open_rows = hit_rows & (prev_rows < frontier[1:, None])
    hit_rows &= ~open_rows
    open_rows &= prev_rows >= frontier[:-1, None]
    undecided = np.flatnonzero(open_rows)
    hits = hit_rows.reshape(-1)[:n]
    below = np.tri(g + 1, g, -1, dtype=bool)  # below[k] = (column < k)
    slab = max(1, _SLAB_CELLS // g)
    for lo in range(0, undecided.size, slab):
        i = undecided[lo:lo + slab]
        p = prev[i]
        c = i // g
        start = c * g
        a = -(-p // g)  # p's next grid point is a * g
        # the chunk's own prefix [max(start, p), i): records unseen since p
        fresh = below[i - start] ^ below[np.maximum(p - start, 0)]
        fresh &= prev_rows[c] < p[:, None]
        held = np.einsum("ij,ij->i", eff_rows[c], fresh)
        # p before the chunk: [p, a * g) still live at the chunk start,
        # plus the table cell for [a * g, start)
        kept = nxt_rows[a - 1] >= start[:, None]
        kept &= ~below[p - (a - 1) * g]
        older = np.einsum("ij,ij->i", eff_rows[a - 1], kept)
        older += table[c, np.maximum(c - a, 0)]
        held += np.where(a <= c, older, 0.0)
        hits[i] = held <= cap
    return hits, bound[1:] - 1, frontier[1:]


def lru_hit_mask(
    keys: np.ndarray, sizes: np.ndarray, capacity_bytes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact cold-cache LRU replay: ``(hits, times, frontier)``.

    ``hits`` equals, bit for bit, the mask of replaying ``(keys, sizes)``
    through an empty :class:`LLCModel` one :meth:`~LLCModel.access` at a
    time.  ``times`` / ``frontier`` are the eviction frontier at the chunk
    boundaries the pass used: after request ``times[k]`` the residents are
    exactly the records last touched at or after position ``frontier[k]``
    (0 while nothing has been evicted); ``times[-1]`` is the last request.

    Raises :class:`~repro.errors.ConfigurationError` unless sizes are
    positive and constant per key (a hit does not resize a record, so only
    then is residency a function of recency alone) and ``n * capacity``
    is below 2**53 (byte sums ride float64).
    """
    keys = np.asarray(keys)
    sizes = _checked_sizes(keys, sizes)
    if not 0 < capacity_bytes * max(keys.size, 1) < 2**53:
        raise ConfigurationError(
            f"capacity must be positive and n * capacity below 2**53, "
            f"got {capacity_bytes} for {keys.size} requests"
        )
    if keys.size == 0:
        nothing = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=bool), nothing, nothing
    prev, nxt = _occurrences(keys)
    if not _constant_per_key(sizes, prev):
        raise ConfigurationError("record sizes must be constant per key")
    return _frontier_pass(prev, nxt, sizes, int(capacity_bytes))


def _checked_sizes(keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """*sizes* as an array aligned with *keys*, every entry positive."""
    sizes = np.asarray(sizes)
    if keys.shape != sizes.shape:
        raise ConfigurationError(
            f"keys and sizes must align: {keys.shape} vs {sizes.shape}"
        )
    if sizes.size and sizes.min() <= 0:
        raise ConfigurationError(
            f"record sizes must be positive, got {sizes.min()}"
        )
    return sizes


def _constant_per_key(sizes: np.ndarray, prev: np.ndarray) -> bool:
    """True when every repeat access carries its key's earlier size."""
    same = np.take(sizes, prev, mode="clip") == sizes
    same |= prev < 0
    return bool(same.all())


class LLCModel:
    """Exact LRU cache over key-value records.

    Parameters
    ----------
    capacity_bytes:
        Cache capacity; defaults to the testbed's 12 MB LLC.
    hit_latency_ns:
        Latency charged for a full hit in place of the memory access.
    """

    def __init__(self, capacity_bytes: int = 12 * MB, hit_latency_ns: float = 12.0):
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        if hit_latency_ns < 0:
            raise ConfigurationError(
                f"hit latency must be >= 0, got {hit_latency_ns}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.hit_latency_ns = float(hit_latency_ns)
        self._entries: dict[int, int] = {}  # key -> size, insertion order = LRU order
        self._used = 0
        self.hits = 0
        self.misses = 0

    # -- introspection -------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently resident."""
        return self._used

    @property
    def resident_keys(self) -> int:
        """Number of records currently resident."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses so far that hit (0 if none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # -- operation -----------------------------------------------------------

    def reset(self) -> None:
        """Flush the cache and clear statistics."""
        self._entries.clear()
        self._used = 0
        self.hits = 0
        self.misses = 0

    def access(self, key: int, size: int) -> bool:
        """Touch *key* (record of *size* bytes); return True on a hit.

        A hit refreshes recency.  A miss installs the record, evicting
        LRU entries until it fits; records larger than the cache are
        bypassed (never installed, always a miss).  A non-positive
        *size* raises :class:`~repro.errors.ConfigurationError`.
        """
        if size <= 0:
            raise ConfigurationError(f"record size must be > 0, got {size}")
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            entries[key] = old  # move to back (most recent)
            self.hits += 1
            return True
        self.misses += 1
        if size > self.capacity_bytes:
            return False
        self._used += size
        entries[key] = size
        while self._used > self.capacity_bytes:
            victim = next(iter(entries))
            self._used -= entries.pop(victim)
        return False

    def invalidate(self, key: int) -> bool:
        """Drop *key* from the cache (e.g. on delete); True if present."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self._used -= size
        return True

    def process(self, keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Run a whole trace through the cache; return the boolean hit mask.

        This is the batch entry point the client uses.  A cold cache and
        per-key-constant sizes take the vectorized frontier pass
        (:func:`lru_hit_mask`, no per-request Python); a warm cache or
        sizes that vary per key replay :meth:`access` request by request.
        Both leave identical statistics and residency state.  A size <= 0
        raises :class:`~repro.errors.ConfigurationError`, state untouched.
        """
        keys = np.asarray(keys)
        sizes = _checked_sizes(keys, sizes)
        n = keys.size
        # the pass sums bytes in float64: exact while n * capacity < 2**53
        if n and not self._entries and n * self.capacity_bytes < 2**53:
            prev, nxt = _occurrences(keys)
            if _constant_per_key(sizes, prev):
                cap = self.capacity_bytes
                hits, _, frontier = _frontier_pass(prev, nxt, sizes, cap)
                n_hits = int(np.count_nonzero(hits))
                self.hits += n_hits
                self.misses += n - n_hits
                # end state: the live fitting positions from T(n - 1) on,
                # in position order, are the residents LRU -> MRU
                start = int(frontier[-1])
                kept = start + np.flatnonzero(
                    (nxt[start:] == n) & (sizes[start:] <= cap)
                )
                self._entries.update(
                    zip(keys[kept].tolist(), sizes[kept].tolist())
                )
                self._used = sum(self._entries.values())
                return hits
        out = np.empty(keys.shape[0], dtype=bool)
        access = self.access
        key_list = keys.tolist()
        size_list = sizes.tolist()
        for i in range(len(key_list)):
            out[i] = access(key_list[i], size_list[i])
        return out
