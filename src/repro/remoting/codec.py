"""Wire format for forwarded API calls.

A forwarded invocation crosses the guest/hypervisor/host boundary as a
:class:`Command`; the host answers with a :class:`Reply`.  Both have an
explicit self-describing binary encoding (no pickle — the router must be
able to treat guest input as untrusted data), implemented as a small
tagged-value format:

========  =======================================
tag byte  payload
========  =======================================
``N``     None
``T``     true / ``F`` false
``I``     int64 (big endian)
``D``     float64
``S``     utf-8 string  (u32 length prefix)
``B``     raw bytes     (u32 length prefix)
``L``     list          (u32 count, then items)
``M``     dict[str, v]  (u32 count, then pairs)
========  =======================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.remoting.buffers import BYTES_LIKE, WireBuffer


class CodecError(Exception):
    """Malformed wire data."""


# ---------------------------------------------------------------------------
# tagged-value encoding
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: maximum container nesting; guests have no business sending deeper
#: structures, and unbounded depth turns the recursive decoder into a
#: guest-triggerable RecursionError inside the router
_MAX_DEPTH = 64


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        out.append(b"I")
        out.append(_I64.pack(value))
    elif isinstance(value, float):
        out.append(b"D")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray, memoryview, WireBuffer)):
        if isinstance(value, WireBuffer):
            value = value.view()
        if isinstance(value, memoryview):
            # splice views without a bytes() round-trip; only shapes
            # b"".join cannot consume directly are normalized
            if not value.c_contiguous:
                value = bytes(value)
            elif value.ndim != 1 or value.itemsize != 1:
                value = value.cast("B")
        out.append(b"B")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"L")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"M")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _encode_value(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__} on the wire")


def _unpack_from(fmt: struct.Struct, data: bytes, offset: int) -> Any:
    """``Struct.unpack_from`` that fails as :class:`CodecError`.

    Every fixed-width read in the decoder goes through here, so a frame
    truncated mid-field can never surface as a raw ``struct.error``.
    """
    try:
        (value,) = fmt.unpack_from(data, offset)
    except struct.error as err:
        raise CodecError(f"truncated wire data: {err}") from err
    return value


def _decode_value(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise CodecError(f"wire data nested deeper than {_MAX_DEPTH}")
    if offset >= len(data):
        raise CodecError("truncated wire data")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        return _unpack_from(_I64, data, offset), offset + 8
    if tag == b"D":
        return _unpack_from(_F64, data, offset), offset + 8
    if tag in (b"S", b"B"):
        length = _unpack_from(_U32, data, offset)
        offset += 4
        chunk = data[offset:offset + length]
        if len(chunk) != length:
            raise CodecError("truncated string/bytes payload")
        offset += length
        return (chunk.decode("utf-8") if tag == b"S" else chunk), offset
    if tag == b"L":
        count = _unpack_from(_U32, data, offset)
        offset += 4
        # the count is attacker-controlled: every item costs at least one
        # tag byte, so a count beyond the remaining bytes is malformed —
        # reject it before looping rather than after ~4G iterations
        if count > len(data) - offset:
            raise CodecError(
                f"list count {count} exceeds {len(data) - offset} "
                f"remaining bytes"
            )
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == b"M":
        count = _unpack_from(_U32, data, offset)
        offset += 4
        # each pair costs at least 4 length bytes + 1 value tag byte
        if count * 5 > len(data) - offset:
            raise CodecError(
                f"dict count {count} exceeds {len(data) - offset} "
                f"remaining bytes"
            )
        result: Dict[str, Any] = {}
        for _ in range(count):
            key_len = _unpack_from(_U32, data, offset)
            offset += 4
            key_chunk = data[offset:offset + key_len]
            if len(key_chunk) != key_len:
                raise CodecError("truncated dict key")
            key = key_chunk.decode("utf-8")
            offset += key_len
            value, offset = _decode_value(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown wire tag {tag!r}")


def encode_value(value: Any) -> bytes:
    """Encode one value in the tagged wire format."""
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


def decode_value(data: bytes) -> Any:
    """Decode one value; trailing bytes are an error.

    This is a trust boundary: the bytes come from guests.  Every
    malformation — truncated fields, invalid UTF-8, bad tags — must
    surface as :class:`CodecError`, never as a raw library exception
    that could escape the router's handler.
    """
    try:
        value, offset = _decode_value(data, 0)
    except (struct.error, UnicodeDecodeError, OverflowError,
            RecursionError) as err:
        raise CodecError(f"malformed wire data: {err}") from err
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# commands and replies
# ---------------------------------------------------------------------------


def _checked(value: Any, types: Any, what: str) -> Any:
    """Require a decoded wire field to have its declared type.

    Message fields come from guests; building a :class:`Command` out of
    mistyped ones would defer the blow-up to the router's accounting or
    dispatch path (or worse: ``bytes(huge_int)`` is a memory bomb).
    """
    accepted = types if isinstance(types, tuple) else (types,)
    mistyped = not isinstance(value, accepted) or (
        isinstance(value, bool) and bool not in accepted
    )
    if mistyped:
        raise CodecError(f"{what} has wire type {type(value).__name__}")
    return value


def _optional(value: Any, types: Any, what: str) -> Any:
    """:func:`_checked` for a field that may also be None."""
    return None if value is None else _checked(value, types, what)


def _buffer_dict(value: Any, what: str) -> Dict[str, bytes]:
    """Validate and normalize a dict of bulk byte payloads."""
    _checked(value, dict, what)
    result: Dict[str, bytes] = {}
    for key, chunk in value.items():
        if not isinstance(chunk, BYTES_LIKE):
            raise CodecError(
                f"{what} entry {key!r} must be bytes, "
                f"got {type(chunk).__name__}"
            )
        result[key] = bytes(chunk)
    return result


#: digest length the transfer cache puts on the wire (blake2b-16)
_DIGEST_BYTES = 16

#: payload kinds a cached ref may replace: a bulk ``in`` buffer or a
#: large string scalar (kernel/program source)
_CACHED_REF_KINDS = ("buf", "str")


def _cached_ref_dict(value: Any, what: str) -> Dict[str, List[Any]]:
    """Validate a dict of ``param -> [digest, size, kind]`` cached refs.

    Refs come from guests and stand in for real payload bytes, so every
    field is load-bearing at the trust boundary: the digest keys the
    server store, the size feeds quota/cost accounting before any bytes
    exist, and the kind decides where the resolved payload lands.
    """
    _checked(value, dict, what)
    result: Dict[str, List[Any]] = {}
    for key, entry in value.items():
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise CodecError(
                f"{what} entry {key!r} must be [digest, size, kind]"
            )
        digest, size, kind = entry
        if not isinstance(digest, BYTES_LIKE):
            raise CodecError(
                f"{what} entry {key!r} digest must be bytes, "
                f"got {type(digest).__name__}"
            )
        digest = bytes(digest)
        if not 1 <= len(digest) <= 64:
            raise CodecError(
                f"{what} entry {key!r} digest length {len(digest)} "
                f"outside [1, 64]"
            )
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise CodecError(
                f"{what} entry {key!r} size must be a non-negative int, "
                f"got {size!r}"
            )
        if kind not in _CACHED_REF_KINDS:
            raise CodecError(
                f"{what} entry {key!r} kind must be one of "
                f"{_CACHED_REF_KINDS}, got {kind!r}"
            )
        result[key] = [digest, size, kind]
    return result


@dataclass
class Command:
    """One forwarded API invocation, guest → host."""

    seq: int
    vm_id: str
    api: str
    function: str
    #: "sync" or "async" — resolved by the guest stub from the spec
    mode: str = "sync"
    #: scalar arguments by parameter name (ints, floats, bools, strings)
    scalars: Dict[str, Any] = field(default_factory=dict)
    #: handle arguments: guest ids (int), lists of ids, or None
    handles: Dict[str, Any] = field(default_factory=dict)
    #: input buffer payloads, already serialized
    in_buffers: Dict[str, bytes] = field(default_factory=dict)
    #: declared byte sizes of output buffers the host must fill
    out_sizes: Dict[str, int] = field(default_factory=dict)
    #: content-addressed stand-ins for elided payloads:
    #: ``param -> [digest, size, kind]`` (see ``repro.remoting.xfercache``);
    #: empty unless a :class:`~repro.remoting.xfercache.CachePolicy` is
    #: armed, so the wire encoding without one is unchanged
    cached_refs: Dict[str, List[Any]] = field(default_factory=dict)
    #: guest virtual time at which the command was issued
    issue_time: float = 0.0
    #: propagated trace context (set only while tracing is enabled, so
    #: the untraced wire encoding — and thus its costs — is unchanged)
    trace_id: Optional[str] = None
    span_id: Optional[int] = None

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried guest → host."""
        return sum(len(chunk) for chunk in self.in_buffers.values())

    def to_wire_dict(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "seq": self.seq,
            "vm": self.vm_id,
            "api": self.api,
            "fn": self.function,
            "mode": self.mode,
            "scalars": self.scalars,
            "handles": self.handles,
            "inbufs": self.in_buffers,
            "outsz": self.out_sizes,
            "t": self.issue_time,
        }
        if self.trace_id is not None or self.span_id is not None:
            wire["tr"] = [self.trace_id, self.span_id]
        if self.cached_refs:
            wire["xr"] = self.cached_refs
        return wire

    @classmethod
    def from_wire_dict(cls, data: Dict[str, Any]) -> "Command":
        # the ids become parents of host spans: a str trace id and int
        # span ids (or None) only, never whatever the guest sent
        trace = data.get("tr")
        if trace is None:
            trace = (None, None)
        elif not isinstance(trace, (list, tuple)) or len(trace) != 2:
            raise CodecError(f"malformed trace context {trace!r}")
        _optional(trace[0], str, "command trace id")
        _optional(trace[1], int, "command span id")
        try:
            command = cls(
                seq=_checked(data["seq"], int, "command seq"),
                vm_id=_checked(data["vm"], str, "command vm"),
                api=_checked(data["api"], str, "command api"),
                function=_checked(data["fn"], str, "command fn"),
                mode=_checked(data["mode"], str, "command mode"),
                scalars=_checked(data["scalars"], dict, "command scalars"),
                handles=_checked(data["handles"], dict, "command handles"),
                in_buffers=_buffer_dict(data["inbufs"], "command inbufs"),
                out_sizes=_checked(data["outsz"], dict, "command outsz"),
                issue_time=_checked(data["t"], (int, float), "command t"),
                trace_id=trace[0],
                span_id=trace[1],
                cached_refs=_cached_ref_dict(data.get("xr", {}),
                                             "command xr"),
            )
        except KeyError as missing:
            raise CodecError(f"command missing field {missing}") from None
        for name, size in command.out_sizes.items():
            if not isinstance(size, int) or isinstance(size, bool):
                raise CodecError(
                    f"command out-size {name!r} must be an int, "
                    f"got {type(size).__name__}"
                )
        for name in command.cached_refs:
            # a ref and a literal payload for the same parameter is
            # contradictory — resolving it would silently pick one
            if name in command.in_buffers:
                raise CodecError(
                    f"command parameter {name!r} carries both a cached "
                    f"ref and literal payload bytes"
                )
        return command


@dataclass
class Reply:
    """The host's answer to one :class:`Command`."""

    seq: int
    return_value: Any = None
    #: filled output buffers by parameter name
    out_payloads: Dict[str, bytes] = field(default_factory=dict)
    #: scalar out-parameters (OutBox results) by parameter name
    out_scalars: Dict[str, Any] = field(default_factory=dict)
    #: freshly allocated handles by parameter name (id or list of ids)
    new_handles: Dict[str, Any] = field(default_factory=dict)
    #: deferred guest-callback invocations: [callback_id, [scalar args]]
    callbacks: List[Any] = field(default_factory=list)
    #: host-side failure (exception text); None on success
    error: Optional[str] = None
    #: host virtual time at which execution completed
    complete_time: float = 0.0
    #: server-side dispatch span id (set only while tracing is enabled)
    span_id: Optional[int] = None

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried host → guest."""
        return sum(len(chunk) for chunk in self.out_payloads.values())

    def to_wire_dict(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "seq": self.seq,
            "ret": self.return_value,
            "outs": self.out_payloads,
            "oscal": self.out_scalars,
            "new": self.new_handles,
            "cbs": self.callbacks,
            "err": self.error,
            "t": self.complete_time,
        }
        if self.span_id is not None:
            wire["tr"] = self.span_id
        return wire

    @classmethod
    def from_wire_dict(cls, data: Dict[str, Any]) -> "Reply":
        error = data.get("err")
        if error is not None and not isinstance(error, str):
            raise CodecError(
                f"reply err has wire type {type(error).__name__}"
            )
        try:
            return cls(
                seq=_checked(data["seq"], int, "reply seq"),
                return_value=data["ret"],
                out_payloads=_buffer_dict(data["outs"], "reply outs"),
                out_scalars=_checked(data["oscal"], dict, "reply oscal"),
                new_handles=_checked(data["new"], dict, "reply new"),
                callbacks=_checked(data.get("cbs", []), list, "reply cbs"),
                error=error,
                complete_time=_checked(data["t"], (int, float), "reply t"),
                span_id=_optional(data.get("tr"), int, "reply span id"),
            )
        except KeyError as missing:
            raise CodecError(f"reply missing field {missing}") from None


@dataclass
class CommandBatch:
    """A coalesced frame of asynchronous commands, guest → host.

    The guest runtime queues async :class:`Command`\\ s between
    synchronization points and flushes them as *one* wire frame (one
    transport delivery, one doorbell).  The batch carries no semantics
    of its own: the router unbundles it and routes every inner command
    through the ordinary verification/policy path, in order.
    """

    vm_id: str
    commands: List[Command] = field(default_factory=list)
    #: guest virtual time at which the batch was flushed
    flush_time: float = 0.0

    def __len__(self) -> int:
        return len(self.commands)

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried guest → host, summed."""
        return sum(command.payload_bytes() for command in self.commands)

    def to_wire_dict(self) -> Dict[str, Any]:
        return {
            "vm": self.vm_id,
            "cmds": [command.to_wire_dict() for command in self.commands],
            "t": self.flush_time,
        }

    @classmethod
    def from_wire_dict(cls, data: Dict[str, Any]) -> "CommandBatch":
        try:
            vm_id = _checked(data["vm"], str, "batch vm")
            entries = _checked(data["cmds"], list, "batch cmds")
            flush_time = _checked(data["t"], (int, float), "batch t")
        except KeyError as missing:
            raise CodecError(f"batch missing field {missing}") from None
        if not entries:
            raise CodecError("batch carries no commands")
        commands: List[Command] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CodecError(
                    f"batch command #{index} has wire type "
                    f"{type(entry).__name__}"
                )
            commands.append(Command.from_wire_dict(entry))
        return cls(vm_id=vm_id, commands=commands, flush_time=flush_time)


@dataclass
class ReplyBatch:
    """The host's answer to one :class:`CommandBatch`.

    Carries exactly one :class:`Reply` per inner command, in command
    order, so the guest runtime can apply outputs and record deferred
    async errors positionally.
    """

    replies: List[Reply] = field(default_factory=list)
    #: host virtual time at which the last inner command completed
    complete_time: float = 0.0

    def __len__(self) -> int:
        return len(self.replies)

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried host → guest, summed."""
        return sum(reply.payload_bytes() for reply in self.replies)

    def to_wire_dict(self) -> Dict[str, Any]:
        return {
            "replies": [reply.to_wire_dict() for reply in self.replies],
            "t": self.complete_time,
        }

    @classmethod
    def from_wire_dict(cls, data: Dict[str, Any]) -> "ReplyBatch":
        try:
            entries = _checked(data["replies"], list, "reply-batch replies")
            complete_time = _checked(data["t"], (int, float),
                                     "reply-batch t")
        except KeyError as missing:
            raise CodecError(f"reply batch missing field {missing}") from None
        replies: List[Reply] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CodecError(
                    f"reply-batch reply #{index} has wire type "
                    f"{type(entry).__name__}"
                )
            replies.append(Reply.from_wire_dict(entry))
        return cls(replies=replies, complete_time=complete_time)


@dataclass
class NeedBytes:
    """Host → guest: cached refs in a frame missed the transfer store.

    The router answers a frame whose :class:`Command.cached_refs` cannot
    all be resolved with one ``NeedBytes`` naming every missing ref —
    and executes *nothing* from that frame — so the guest can restore
    the payloads and re-deliver the frame exactly once.
    """

    #: seq of the first command in the rejected frame (batch: first cmd)
    seq: int
    #: every unresolved ref as ``[seq, param, digest]``
    missing: List[Any] = field(default_factory=list)
    #: host virtual time at which the miss was detected
    complete_time: float = 0.0

    def to_wire_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "miss": self.missing,
            "t": self.complete_time,
        }

    @classmethod
    def from_wire_dict(cls, data: Dict[str, Any]) -> "NeedBytes":
        try:
            seq = _checked(data["seq"], int, "need-bytes seq")
            entries = _checked(data["miss"], list, "need-bytes miss")
            complete_time = _checked(data["t"], (int, float),
                                     "need-bytes t")
        except KeyError as missing:
            raise CodecError(
                f"need-bytes missing field {missing}"
            ) from None
        if not entries:
            raise CodecError("need-bytes names no missing refs")
        parsed: List[Any] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise CodecError(
                    f"need-bytes miss #{index} must be "
                    f"[seq, param, digest]"
                )
            cmd_seq, param, digest = entry
            _checked(cmd_seq, int, f"need-bytes miss #{index} seq")
            _checked(param, str, f"need-bytes miss #{index} param")
            if not isinstance(digest, BYTES_LIKE):
                raise CodecError(
                    f"need-bytes miss #{index} digest must be bytes, "
                    f"got {type(digest).__name__}"
                )
            parsed.append([cmd_seq, param, bytes(digest)])
        return cls(seq=seq, missing=parsed, complete_time=complete_time)


_COMMAND_MAGIC = b"\xabC"
_REPLY_MAGIC = b"\xabR"
_COMMAND_BATCH_MAGIC = b"\xabB"
_REPLY_BATCH_MAGIC = b"\xabP"
_NEED_BYTES_MAGIC = b"\xabN"

_MESSAGE_MAGICS = {
    Command: _COMMAND_MAGIC,
    Reply: _REPLY_MAGIC,
    CommandBatch: _COMMAND_BATCH_MAGIC,
    ReplyBatch: _REPLY_BATCH_MAGIC,
    NeedBytes: _NEED_BYTES_MAGIC,
}


def encode_message(message: Any) -> bytes:
    """Encode a Command/Reply/CommandBatch/ReplyBatch to wire bytes.

    Deprecated shim: this is the interpreted slow path, kept so
    external callers don't break.  New code should go through a
    :class:`repro.remoting.wire.WireCodec` instance —
    ``InterpretedCodec`` for this exact behavior, ``SpecializedCodec``
    for the generated fast path.
    """
    magic = _MESSAGE_MAGICS.get(type(message))
    if magic is None:
        raise CodecError(
            f"cannot encode {type(message).__name__} as a message"
        )
    body = encode_value(message.to_wire_dict())
    return magic + _U32.pack(len(body)) + body


def decode_message(data: bytes) -> Any:
    """Decode wire bytes produced by :func:`encode_message`.

    Like :func:`decode_value`, a trust boundary: any malformation raises
    :class:`CodecError`.

    Deprecated shim for new code — prefer a
    :class:`repro.remoting.wire.WireCodec` instance.  Accepts any
    byte-like frame (bytes, bytearray, memoryview, ``WireFrame``) and
    normalizes it once.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    if len(data) < 6:
        raise CodecError("message too short")
    magic, length = data[:2], _unpack_from(_U32, data, 2)
    body = data[6:6 + length]
    if len(body) != length:
        raise CodecError("truncated message body")
    decoded = decode_value(body)
    if not isinstance(decoded, dict):
        raise CodecError(
            f"message body is a {type(decoded).__name__}, not a dict"
        )
    try:
        if magic == _COMMAND_MAGIC:
            return Command.from_wire_dict(decoded)
        if magic == _REPLY_MAGIC:
            return Reply.from_wire_dict(decoded)
        if magic == _COMMAND_BATCH_MAGIC:
            return CommandBatch.from_wire_dict(decoded)
        if magic == _REPLY_BATCH_MAGIC:
            return ReplyBatch.from_wire_dict(decoded)
        if magic == _NEED_BYTES_MAGIC:
            return NeedBytes.from_wire_dict(decoded)
    except (TypeError, AttributeError, ValueError) as err:
        raise CodecError(f"malformed message fields: {err}") from err
    raise CodecError(f"bad message magic {magic!r}")


class StreamFramer:
    """Stateful framing helper for stream transports (sockets).

    Feed raw stream chunks in with :meth:`feed`; complete messages pop
    out of :meth:`messages`.

    (Formerly named ``WireCodec``; that name now belongs to the codec
    protocol in :mod:`repro.remoting.wire`.)
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer.extend(chunk)

    def messages(self) -> List[Any]:
        """Drain and decode all complete messages buffered so far."""
        result = []
        while len(self._buffer) >= 6:
            (length,) = _U32.unpack_from(self._buffer, 2)
            total = 6 + length
            if len(self._buffer) < total:
                break
            frame = bytes(self._buffer[:total])
            del self._buffer[:total]
            result.append(decode_message(frame))
        return result
