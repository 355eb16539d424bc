"""Bit-exact codec for the hybrid classical-quantum frame.

Wire layout (all multi-byte integers big-endian):

    offset  size  field
    ------  ----  -----------------------------------------------
    0       2     magic 0x51 0x50
    2       1     version, currently 1
    3       1     flags: bit0 quantum payload present, bit1 ack
                  present, bits 2-7 reserved (must be zero)
    4       4     requesting_station_id
    8       4     receiving_station_id
    12      8     transmit_time_ns
    20      8     op_commence_time_ns (0 = unset)
    28      2     qubit_count
    30      9*q   qubit descriptors: qubit_id u32,
                  entanglement_group u32 (0 = unentangled),
                  encoding u8 (0 = DV, 1 = CV reference)
    30+9q   4     ack_session_id (0 when the ack flag is clear)
    34+9q   2     error_corr_len
    36+9q   n     opaque error-correction bytes
    36+9q+n 4     crc32 (IEEE reflected, over all preceding bytes)
    40+9q+n 2     end marker 0x0E 0x0F

Total length = 42 + 9*qubit_count + error_corr_len bytes.  Qubit payloads
are carried as descriptors (ids plus entanglement-group tags), never as
amplitudes; group ids are preserved verbatim and checked at the protocol
layer, not here.

In memory a packet's descriptors are one immutable ``bytes`` block of their
9-byte wire records, which ``Packet.qubits`` exposes through ``Descriptors``,
a read-only sequence of ``QubitDescriptor``: ``decode`` slices the block out
of the frame, ``packet_from_dict`` packs it, ``encode`` joins it and
``packet_to_dict`` unpacks it.  A packet built by hand keeps its tuple of
``QubitDescriptor``, which ``encode`` packs the same way.  Descriptor values
are checked when they are packed, column by column in C; only a failed check
runs the ordered per-descriptor loop that names the first bad descriptor.
``packet_from_dict`` keeps a tuple when a check fails, so ``encode`` reports
the bad value after the header fields, as it does for a hand-built packet.
``decode`` checks every encoding byte with one byte slice.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import index, itemgetter
from typing import NamedTuple

MAGIC = b"\x51\x50"
VERSION = 1
END_MARKER = b"\x0e\x0f"
FLAG_QUANTUM = 0x01
FLAG_ACK = 0x02
RESERVED_FLAGS = 0xFC

HEADER_LEN = 30
DESCRIPTOR_LEN = 9
TRAILER_FIXED_LEN = 12   # ack + error_corr_len + crc32 + end marker

ENCODING_DV = 0
ENCODING_CV_REFERENCE = 1

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF

_DESC = struct.Struct(">IIB")   # one descriptor: qubit_id, group, encoding


class PacketError(ValueError):
    """Structured codec error; offset is the byte where decoding failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BadMagic(PacketError):
    pass


class BadVersion(PacketError):
    pass


class ReservedFlagSet(PacketError):
    pass


class TruncatedInput(PacketError):
    pass


class CrcMismatch(PacketError):
    pass


class BadEndMarker(PacketError):
    pass


class TrailingBytes(PacketError):
    pass


class FieldMismatch(PacketError):
    """Cross-field inconsistency (flags vs payload/ack contents)."""


class EncodeValidationError(ValueError):
    """Packet violates an invariant and cannot be encoded."""


def crc32(data: bytes, value: int = 0) -> int:
    """IEEE reflected CRC-32 (init 0xFFFFFFFF, final xor 0xFFFFFFFF); with
    value, the CRC of the bytes whose CRC is value followed by data."""
    return zlib.crc32(data, value) & _U32


class QubitDescriptor(NamedTuple):
    qubit_id: int
    entanglement_group: int = 0   # 0 = unentangled
    encoding: int = ENCODING_DV


# QubitDescriptor from a 3-tuple, as ``QubitDescriptor._make`` does, but
# without a Python-level call per descriptor
_descriptor = partial(tuple.__new__, QubitDescriptor)


class Descriptors(Sequence):
    """Read-only view of a packed descriptor block as ``QubitDescriptor``s.

    The block holds the 9-byte wire records of the frame.  A view equals,
    and hashes like, the tuple of the same descriptors; slicing returns a
    tuple.
    """

    __slots__ = ("_block",)

    def __init__(self, block: bytes):
        self._block = block

    def __len__(self) -> int:
        return len(self._block) // DESCRIPTOR_LEN

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k, n = index(k), len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("descriptor index out of range")
        return _descriptor(_DESC.unpack_from(self._block, DESCRIPTOR_LEN * k))

    def __iter__(self):
        return map(_descriptor, _DESC.iter_unpack(self._block))

    def __eq__(self, other):
        if type(other) is Descriptors:
            return self._block == other._block
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Packet:
    requesting_station_id: int
    receiving_station_id: int
    transmit_time_ns: int
    op_commence_time_ns: int = 0
    qubits: Sequence = ()     # a tuple of QubitDescriptor, or a Descriptors view
    ack_session_id: int = 0
    ack_present: bool = False
    error_corr: bytes = b""
    version: int = VERSION

    @property
    def flags(self) -> int:
        return ((FLAG_QUANTUM if self.qubits else 0)
                | (FLAG_ACK if self.ack_present else 0))

    def encoded_length(self) -> int:
        return HEADER_LEN + DESCRIPTOR_LEN * len(self.qubits) \
            + TRAILER_FIXED_LEN + len(self.error_corr)


def _check_each(rows) -> None:
    """Raise for the first bad descriptor, its fields checked in order."""
    for qid, group, enc in rows:
        if type(qid) is not int or not 0 <= qid <= _U32:
            raise EncodeValidationError(
                f"qubit_id={qid!r} is not an integer in [0, {_U32}]")
        if type(group) is not int or not 0 <= group <= _U32:
            raise EncodeValidationError(
                f"entanglement_group={group!r} is not an integer in "
                f"[0, {_U32}]")
        if type(enc) is not int or enc not in (
                ENCODING_DV, ENCODING_CV_REFERENCE):
            raise EncodeValidationError(f"encoding={enc!r} not in {{0, 1}}")


def _pack(ids, groups, encs) -> bytes:
    """The descriptor block of three equal-length columns.

    The columns are checked in C: every value an ``int`` (not a ``bool``),
    ids and groups in range (``struct.pack`` raises otherwise) and every
    encoding in {0, 1}.  Only when a check fails does the ordered loop run,
    to raise an EncodeValidationError naming the first bad descriptor.
    """
    if not ids:
        return b""
    if set(map(type, ids)) | set(map(type, groups)) | set(map(type, encs)) \
            <= {int} and set(encs) <= {ENCODING_DV, ENCODING_CV_REFERENCE}:
        u32s = f">{len(ids)}I"
        try:
            id_bytes, group_bytes = (struct.pack(u32s, *ids),
                                     struct.pack(u32s, *groups))
        except struct.error:
            pass
        else:
            block = bytearray(DESCRIPTOR_LEN * len(ids))
            for j in range(4):
                block[j::DESCRIPTOR_LEN] = id_bytes[j::4]
                block[4 + j::DESCRIPTOR_LEN] = group_bytes[j::4]
            block[8::DESCRIPTOR_LEN] = bytes(encs)
            return bytes(block)
    _check_each(zip(ids, groups, encs))


def _block(qubits) -> bytes:
    """The checked descriptor block of a view or a descriptor tuple."""
    if type(qubits) is Descriptors:
        return qubits._block
    try:
        ids, groups, encs = zip(*qubits, strict=True) if qubits else ((),) * 3
    except (TypeError, ValueError):
        # some descriptor is not a triple: the ordered loop raises for the
        # first bad one
        _check_each(qubits)
        raise
    return _pack(ids, groups, encs)


def _validate(p: Packet) -> bytes:
    """Check every field; returns the descriptor block."""
    if type(p.version) is not int or p.version != VERSION:
        raise EncodeValidationError(f"unsupported version {p.version!r}")
    if type(p.ack_present) is not bool:
        raise EncodeValidationError(
            f"ack_present={p.ack_present!r} is not a boolean")
    for name, value, limit in (
            ("requesting_station_id", p.requesting_station_id, _U32),
            ("receiving_station_id", p.receiving_station_id, _U32),
            ("transmit_time_ns", p.transmit_time_ns, _U64),
            ("op_commence_time_ns", p.op_commence_time_ns, _U64),
            ("ack_session_id", p.ack_session_id, _U32)):
        if type(value) is not int or not 0 <= value <= limit:
            raise EncodeValidationError(
                f"{name}={value!r} is not an integer in [0, {limit}]")
    if len(p.qubits) > _U16:
        raise EncodeValidationError(f"too many qubits: {len(p.qubits)}")
    if len(p.error_corr) > _U16:
        raise EncodeValidationError(
            f"error_corr too long: {len(p.error_corr)} bytes")
    if not p.ack_present and p.ack_session_id != 0:
        raise EncodeValidationError("ack_session_id must be 0 without the ack flag")
    return _block(p.qubits)


def encode(p: Packet) -> bytes:
    """Serialize a packet; raises EncodeValidationError on invariant breaks.

    The CRC runs over the body's parts in order, so the frame is built by
    one join and never copied.
    """
    block = _validate(p)
    body = (struct.pack(">2sBBIIQQH", MAGIC, p.version, p.flags,
                        p.requesting_station_id, p.receiving_station_id,
                        p.transmit_time_ns, p.op_commence_time_ns,
                        len(p.qubits)),
            block,
            struct.pack(">IH", p.ack_session_id, len(p.error_corr)),
            p.error_corr)
    crc = 0
    for part in body:
        crc = crc32(part, crc)
    return b"".join((*body, struct.pack(">I", crc), END_MARKER))


def decode(data: bytes) -> Packet:
    """Parse one packet from a bytes-like object; total over any input.

    Never reads past the declared lengths; every failure raises a distinct
    PacketError subclass carrying the offending byte offset.
    """
    # no copy of bytes; memoryview rejects an int, which bytes would size
    data = data if isinstance(data, bytes) else bytes(memoryview(data))
    if len(data) < 2:
        raise TruncatedInput("input ends inside the magic", len(data))
    if data[:2] != MAGIC:
        raise BadMagic(f"bad magic {data[:2].hex()}", 0)
    if len(data) < 3:
        raise TruncatedInput("input ends before the version byte", len(data))
    if data[2] != VERSION:
        raise BadVersion(f"unsupported version {data[2]}", 2)
    if len(data) < 4:
        raise TruncatedInput("input ends before the flags byte", len(data))
    flags = data[3]
    if flags & RESERVED_FLAGS:
        raise ReservedFlagSet(f"reserved flag bits set in 0x{flags:02x}", 3)
    if len(data) < HEADER_LEN:
        raise TruncatedInput("input ends inside the header", len(data))
    req_id, recv_id, tx_ns, op_ns, qubit_count = struct.unpack(
        ">IIQQH", data[4:HEADER_LEN])
    if (qubit_count == 0) != (flags & FLAG_QUANTUM == 0):
        raise FieldMismatch(
            f"qubit_count={qubit_count} inconsistent with flags 0x{flags:02x}", 28)

    desc_end = HEADER_LEN + DESCRIPTOR_LEN * qubit_count
    if len(data) < desc_end + 6:
        raise TruncatedInput("input ends inside descriptors or trailer head",
                             len(data))
    # the encoding byte of every descriptor; k is the first not in {0, 1}
    encodings = data[HEADER_LEN + 8:desc_end:DESCRIPTOR_LEN]
    k = len(encodings) - len(encodings.lstrip(b"\x00\x01"))
    if k < qubit_count:
        raise FieldMismatch(f"qubit encoding {encodings[k]} not in {{0, 1}}",
                            HEADER_LEN + DESCRIPTOR_LEN * k + 8)
    qubits = Descriptors(bytes(data[HEADER_LEN:desc_end]))

    ack_id, ec_len = struct.unpack(">IH", data[desc_end:desc_end + 6])
    if not (flags & FLAG_ACK) and ack_id != 0:
        raise FieldMismatch(
            f"ack_session_id={ack_id} present without the ack flag", desc_end)
    total = desc_end + 6 + ec_len + 6
    if len(data) < total:
        raise TruncatedInput("input ends inside error-correction bytes, "
                             "crc, or end marker", len(data))
    if len(data) > total:
        raise TrailingBytes(f"{len(data) - total} bytes past the end marker", total)
    ec_end = desc_end + 6 + ec_len
    error_corr = data[desc_end + 6:ec_end]
    (crc_stored,) = struct.unpack(">I", data[ec_end:ec_end + 4])
    crc_actual = crc32(memoryview(data)[:ec_end])   # no copy of the frame
    if crc_stored != crc_actual:
        raise CrcMismatch(
            f"crc 0x{crc_stored:08x} != computed 0x{crc_actual:08x}", ec_end)
    if data[ec_end + 4:ec_end + 6] != END_MARKER:
        raise BadEndMarker(
            f"bad end marker {data[ec_end + 4:ec_end + 6].hex()}", ec_end + 4)

    return Packet(requesting_station_id=req_id, receiving_station_id=recv_id,
                  transmit_time_ns=tx_ns, op_commence_time_ns=op_ns,
                  qubits=qubits, ack_session_id=ack_id,
                  ack_present=bool(flags & FLAG_ACK), error_corr=error_corr)


def packet_to_dict(p: Packet) -> dict:
    """JSON-friendly view used by the CLI."""
    rows = (_DESC.iter_unpack(p.qubits._block)
            if type(p.qubits) is Descriptors else p.qubits)
    return {
        "version": p.version,
        "requesting_station_id": p.requesting_station_id,
        "receiving_station_id": p.receiving_station_id,
        "transmit_time_ns": p.transmit_time_ns,
        "op_commence_time_ns": p.op_commence_time_ns,
        "qubits": [{"qubit_id": qid, "entanglement_group": group,
                    "encoding": enc} for qid, group, enc in rows],
        "ack_present": p.ack_present,
        "ack_session_id": p.ack_session_id,
        "error_corr_hex": p.error_corr.hex(),
    }


def _not_an_object(k: int, q) -> None:
    raise TypeError(f"qubits[{k}] must be an object, got {type(q).__name__}")


def packet_from_dict(d: dict) -> Packet:
    """Inverse of packet_to_dict; a TypeError names a mistyped container.

    A missing ``qubit_id`` or a non-object descriptor raises for the first
    such descriptor.  Descriptors whose values pass ``encode``'s checks are
    packed into one block here; otherwise the packet keeps a tuple of
    ``QubitDescriptor`` and ``encode`` reports the first bad value, after the
    header fields.
    """
    specs = d.get("qubits", [])
    if not isinstance(specs, (list, tuple)):
        raise TypeError(f"qubits must be a list of objects, "
                        f"got {type(specs).__name__}")
    if set(map(type, specs)) <= {dict}:
        columns = (list(map(itemgetter("qubit_id"), specs)),
                   list(map(dict.get, specs, repeat("entanglement_group"),
                            repeat(0))),
                   list(map(dict.get, specs, repeat("encoding"),
                            repeat(ENCODING_DV))))
    else:
        columns = tuple(zip(*[
            (q["qubit_id"], q.get("entanglement_group", 0),
             q.get("encoding", ENCODING_DV))
            if isinstance(q, dict) else _not_an_object(k, q)
            for k, q in enumerate(specs)]))
    try:
        qubits = Descriptors(_pack(*columns))
    except EncodeValidationError:
        qubits = tuple(map(_descriptor, zip(*columns)))
    error_corr_hex = d.get("error_corr_hex", "")
    if not isinstance(error_corr_hex, str):
        raise TypeError(f"error_corr_hex must be a hex string, "
                        f"got {type(error_corr_hex).__name__}")
    return Packet(
        requesting_station_id=d["requesting_station_id"],
        receiving_station_id=d["receiving_station_id"],
        transmit_time_ns=d["transmit_time_ns"],
        op_commence_time_ns=d.get("op_commence_time_ns", 0),
        qubits=qubits,
        ack_session_id=d.get("ack_session_id", 0),
        ack_present=d.get("ack_present", False),
        error_corr=bytes.fromhex(error_corr_hex),
        version=d.get("version", VERSION),
    )
