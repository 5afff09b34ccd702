"""QUIC variable-length integers (RFC 9000 §16), encoded and decoded.

The simulator only needs each varint's size (`mpqsim.core.varint_size`);
the tests use the full codec to check those sizes against real encodings.
"""

from mpqsim.core import varint_size


def varint_encode(value: int) -> bytes:
    """Encode an integer as a QUIC variable-length integer."""
    size = varint_size(value)
    if size == 1:
        return value.to_bytes(1, "big")
    prefix = {2: 0x40, 4: 0x80, 8: 0xC0}[size]
    raw = value.to_bytes(size, "big")
    return bytes([raw[0] | prefix]) + raw[1:]


def varint_decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a QUIC varint, returning (value, bytes consumed)."""
    if offset >= len(data):
        raise ValueError("varint: empty input")
    size = 1 << (data[offset] >> 6)
    if offset + size > len(data):
        raise ValueError("varint: truncated input")
    value = data[offset] & 0x3F
    for i in range(1, size):
        value = (value << 8) | data[offset + i]
    return value, size
