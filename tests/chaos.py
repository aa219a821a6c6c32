"""Frame-level fault injection for the transport chaos tests.

:class:`FaultyTransport` wraps any real transport endpoint and corrupts
the *send* side deterministically, by frame index — the network
adversary counterpart of
:class:`~repro.runtime.FailureInjector` (worker faults) and
:class:`~repro.runtime.checkpoint.CrashInjector` (process death).
Faults are keyed by the 0-based index of the frame in send order, so a
test can aim at exactly the OPEN, a specific TILE, or the COMMIT of a
chosen rank and assert the typed error the protocol promises:

* dropped / duplicated / swapped frames →
  :class:`~repro.errors.FrameSequenceError` (tile-index bookkeeping) or
  a hang the recv timeout converts to
  :class:`~repro.errors.TransportTimeoutError`;
* a flipped payload/header bit → :class:`~repro.errors.FrameIntegrityError`
  (CRC32 covers everything after the magic);
* a flipped magic bit → :class:`~repro.errors.FrameCodecError`.

Receive, close, and ``name`` delegate to the wrapped endpoint
unchanged, so a faulty producer can talk to an honest collector over
any transport.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.net.transport import TileTransport


def flip_bit(data: bytes, byte_offset: int, bit: int = 0) -> bytes:
    """``data`` with one bit flipped at ``byte_offset`` (test helper)."""
    if not 0 <= byte_offset < len(data):
        raise ValueError(
            f"byte offset {byte_offset} outside frame of {len(data)} bytes"
        )
    mutated = bytearray(data)
    mutated[byte_offset] ^= 1 << bit
    return bytes(mutated)


class FaultyTransport:
    """A transport endpoint whose sends misbehave on chosen frames.

    ``drop``/``duplicate``/``corrupt``/``swap`` are sets of send-order
    frame indices (0-based, counted across *attempted* sends):

    * ``drop`` — the frame is silently discarded;
    * ``duplicate`` — the frame is sent twice back-to-back;
    * ``corrupt`` — one bit is flipped at ``corrupt_offset`` before
      sending (default offset 12: inside the CRC-protected header);
    * ``swap`` — the frame is held back and sent *after* the next
      frame (adjacent reorder).

    Everything is deterministic: no randomness, so a failing chaos test
    replays exactly.
    """

    def __init__(
        self,
        inner: TileTransport,
        *,
        drop: Iterable[int] = (),
        duplicate: Iterable[int] = (),
        corrupt: Iterable[int] = (),
        swap: Iterable[int] = (),
        corrupt_offset: int = 12,
        corrupt_bit: int = 0,
    ) -> None:
        self.inner = inner
        self.name = f"faulty+{inner.name}"
        self._drop: FrozenSet[int] = frozenset(drop)
        self._duplicate: FrozenSet[int] = frozenset(duplicate)
        self._corrupt: FrozenSet[int] = frozenset(corrupt)
        self._swap: FrozenSet[int] = frozenset(swap)
        self._corrupt_offset = corrupt_offset
        self._corrupt_bit = corrupt_bit
        self._held: Optional[bytes] = None
        self.frames_attempted = 0
        self.faults_injected = 0

    def send_frame(self, frame: bytes) -> None:
        index = self.frames_attempted
        self.frames_attempted += 1
        if index in self._corrupt:
            self.faults_injected += 1
            frame = flip_bit(
                frame, min(self._corrupt_offset, len(frame) - 1), self._corrupt_bit
            )
        if index in self._drop:
            self.faults_injected += 1
            self._flush_held()
            return
        if index in self._swap:
            self.faults_injected += 1
            self._flush_held()
            self._held = bytes(frame)
            return
        self.inner.send_frame(frame)
        if index in self._duplicate:
            self.faults_injected += 1
            self.inner.send_frame(frame)
        self._flush_held()

    def _flush_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self.inner.send_frame(held)

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        return self.inner.recv_frame(timeout=timeout)

    def close(self) -> None:
        self._held = None
        self.inner.close()

