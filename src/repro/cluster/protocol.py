"""Length-prefixed wire protocol between the gateway and shard workers.

One frame carries a small JSON header plus zero or more raw ndarray
payloads, so a request batch crosses the gateway↔shard boundary as::

    u32 header_len | u64 payload_len | header JSON | raw array bytes…

The header's ``"arrays"`` entry records each payload array's shape and
dtype; the receiver reconstructs views with ``np.frombuffer`` over one
contiguous receive buffer — no per-row serialization, no pickling, and
(on the send side) ``sendall`` over memoryviews of the original arrays,
so a float64 request batch is never copied into an intermediate bytes
object. Both a blocking-socket API (shard workers) and an asyncio
stream API (the gateway) are provided over the same format.

Frame kinds are a gateway/shard contract, not enforced here — the
header is an arbitrary JSON-serializable dict. ``MAX_FRAME_BYTES``
bounds a frame so a corrupt length prefix fails fast instead of
attempting a multi-gigabyte allocation. A predict reply (``"result"``)
carries one float64 column per name in its ``"metrics"`` list; it
crosses shard → gateway → client unchanged, and
:func:`decode_results` turns it into rows at the end.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.requests import PredictionResult, results_from_columns

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_results",
    "read_frame",
    "read_frame_async",
    "send_frame",
    "write_frame_async",
]

_PREFIX = struct.Struct("<IQ")

#: Upper bound on one frame (header + payload); a corrupt prefix is
#: detected instead of honoured.
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(ServingError):
    """A malformed or oversized frame arrived on a cluster connection."""


def _encode_header(
    header: Dict, arrays: Sequence[np.ndarray]
) -> Tuple[bytes, List[np.ndarray]]:
    """Serialize the header, recording array shapes/dtypes alongside."""
    prepared: List[np.ndarray] = []
    specs = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        prepared.append(array)
        specs.append(
            {"shape": list(array.shape), "dtype": str(array.dtype)}
        )
    payload = dict(header)
    payload["arrays"] = specs
    return json.dumps(payload, sort_keys=True).encode("utf-8"), prepared


def _decode_payload(
    header: Dict, payload: memoryview
) -> List[np.ndarray]:
    """Rebuild the payload arrays as zero-copy views over the buffer.

    Hardened against untrusted peers: the header is data off the wire,
    so every shape/dtype entry is validated before it touches an
    allocation. Negative or non-integer shape entries, unknown dtypes,
    element counts whose byte size exceeds ``MAX_FRAME_BYTES``, short
    payloads, and trailing payload bytes the header does not account
    for all raise :class:`ProtocolError` instead of producing a
    garbage view (a negative entry would make ``nbytes`` negative and
    turn the bounds check vacuous) or being silently ignored.
    """
    specs = header.get("arrays", ())
    if not isinstance(specs, (list, tuple)):
        raise ProtocolError(
            f"frame header 'arrays' must be a list, got "
            f"{type(specs).__name__}"
        )
    arrays: List[np.ndarray] = []
    offset = 0
    for spec in specs:
        if not isinstance(spec, dict):
            raise ProtocolError(
                f"frame array spec must be a dict, got "
                f"{type(spec).__name__}"
            )
        try:
            dtype = np.dtype(spec["dtype"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"frame array spec has a bad dtype: {error}"
            ) from None
        raw_shape = spec.get("shape")
        if not isinstance(raw_shape, (list, tuple)):
            raise ProtocolError(
                f"frame array spec has a bad shape: {raw_shape!r}"
            )
        shape: List[int] = []
        count = 1
        for entry in raw_shape:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise ProtocolError(
                    f"frame array shape entry {entry!r} is not an integer"
                )
            if entry < 0:
                raise ProtocolError(
                    f"frame array shape entry {entry} is negative"
                )
            shape.append(entry)
            count *= entry
            if count * dtype.itemsize > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame array of shape {raw_shape} ({dtype}) exceeds "
                    f"the {MAX_FRAME_BYTES}-byte bound"
                )
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"frame payload too short: header promises {nbytes} "
                f"bytes at offset {offset}, buffer has {len(payload)}"
            )
        arrays.append(
            np.frombuffer(
                payload[offset:offset + nbytes], dtype=dtype
            ).reshape(tuple(shape))
        )
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"frame payload has {len(payload) - offset} trailing bytes "
            f"the header does not account for"
        )
    return arrays


def decode_results(
    header: Dict, arrays: Sequence[np.ndarray]
) -> List[PredictionResult]:
    """Rows of a ``"result"`` frame: one equal-length column per metric."""
    metrics = list(header.get("metrics", ()))
    shapes = [array.shape for array in arrays]
    if len(shapes) != len(metrics) or any(
        len(shape) != 1 or shape != shapes[0] for shape in shapes
    ):
        raise ProtocolError(
            f"result frame has {len(metrics)} metrics but columns of "
            f"shapes {shapes}"
        )
    return results_from_columns(
        metrics, int(header.get("version", 0)), arrays
    )


def _check_lengths(header_len: int, payload_len: int) -> None:
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {header_len + payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound (corrupt length prefix?)"
        )


def _decode_header(raw: bytes) -> Dict:
    """Parse the header JSON; malformed bytes are a protocol error."""
    try:
        header = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(
            f"frame header is not valid JSON: {error}"
        ) from None
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    return header


# ----------------------------------------------------------------------
# Blocking-socket API (shard worker side).
# ----------------------------------------------------------------------
def send_frame(
    sock: socket.socket,
    header: Dict,
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Write one frame to a blocking socket.

    The arrays go out as memoryviews of their (contiguous) originals —
    ``sendall`` streams them without building a joined bytes object.
    """
    header_bytes, prepared = _encode_header(header, arrays)
    payload_len = sum(a.nbytes for a in prepared)
    _check_lengths(len(header_bytes), payload_len)
    sock.sendall(_PREFIX.pack(len(header_bytes), payload_len))
    sock.sendall(header_bytes)
    for array in prepared:
        if array.nbytes:  # empty views refuse the byte cast
            sock.sendall(memoryview(array).cast("B"))


def _recv_exactly(sock: socket.socket, n: int) -> memoryview:
    """Read exactly ``n`` bytes (EOFError on a closed peer)."""
    buffer = bytearray(n)
    view = memoryview(buffer)
    got = 0
    while got < n:
        count = sock.recv_into(view[got:])
        if count == 0:
            raise EOFError("peer closed the cluster connection")
        got += count
    return view

def read_frame(
    sock: socket.socket,
) -> Tuple[Dict, List[np.ndarray]]:
    """Read one frame from a blocking socket: ``(header, arrays)``.

    Raises ``EOFError`` when the peer has closed the connection at a
    frame boundary (the clean-shutdown signal) or mid-frame.
    """
    header_len, payload_len = _PREFIX.unpack(
        _recv_exactly(sock, _PREFIX.size)
    )
    _check_lengths(header_len, payload_len)
    header = _decode_header(bytes(_recv_exactly(sock, header_len)))
    payload = (
        _recv_exactly(sock, payload_len) if payload_len else memoryview(b"")
    )
    return header, _decode_payload(header, payload)


# ----------------------------------------------------------------------
# Asyncio stream API (gateway side).
# ----------------------------------------------------------------------
async def write_frame_async(
    writer: asyncio.StreamWriter,
    header: Dict,
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Write one frame to an asyncio stream and drain it."""
    header_bytes, prepared = _encode_header(header, arrays)
    payload_len = sum(a.nbytes for a in prepared)
    _check_lengths(len(header_bytes), payload_len)
    writer.write(_PREFIX.pack(len(header_bytes), payload_len))
    writer.write(header_bytes)
    for array in prepared:
        if array.nbytes:  # empty views refuse the byte cast
            writer.write(memoryview(array).cast("B"))
    await writer.drain()


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Tuple[Dict, List[np.ndarray]]:
    """Read one frame from an asyncio stream: ``(header, arrays)``.

    Raises ``asyncio.IncompleteReadError`` when the peer closes — the
    gateway treats that as the shard dying.
    """
    prefix = await reader.readexactly(_PREFIX.size)
    header_len, payload_len = _PREFIX.unpack(prefix)
    _check_lengths(header_len, payload_len)
    header = _decode_header(await reader.readexactly(header_len))
    payload = (
        memoryview(await reader.readexactly(payload_len))
        if payload_len
        else memoryview(b"")
    )
    return header, _decode_payload(header, payload)
