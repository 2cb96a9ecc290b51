"""The generated-codec fast path: table-driven marshaling drivers.

At codegen time, :mod:`repro.codegen.codec_gen` emits one module per
API holding a :class:`CommandTable` / :class:`ReplyTable` pair per
function — precomputed key-byte constants and per-parameter kind maps
derived from the spec.  The drivers in this module walk those tables
with no per-field tag dispatch and no intermediate wire-dict: encode
appends straight into one growing frame allocation
(:class:`FrameBuilder`, length patched with ``pack_into`` at finish),
decode slices a single ``memoryview`` over the frame so bulk
``in``-buffers reach the worker zero-copy.

Trace context is part of the layout: a traced command is the 11-key
dict whose last entry is ``tr`` = ``[trace_id, span_id]``, a traced
reply the 9-key dict ending in ``tr`` = ``span_id``, so frames stamped
by an installed tracer stay on the compiled path.

**Byte identity is the contract.**  For every message the fast path
encodes, the emitted bytes equal the interpreted encoder's exactly;
whenever a message strays from the generated layout — cached refs, a
trace id that is not a str, a bool where an int belongs, an unknown
key, a truncated or hostile frame — the driver raises the internal
:class:`_Fallback` and :class:`SpecializedCodec` re-runs the
interpreted path on the original input.  The fast path therefore
inherits every :class:`~repro.remoting.codec.CodecError` guarantee of
the trust boundary, verbatim.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.remoting import codec as _codec
from repro.remoting.buffers import WireBuffer
from repro.remoting.codec import (
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.wire import FrameLike, WireCodec, WireFrame, frame_bytes

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: tag byte + fixed-width value, packed in one call
_TI64 = struct.Struct(">cq")
_TF64 = struct.Struct(">cd")
_TU32 = struct.Struct(">cI")

#: payloads at or above this many bytes are spliced into the frame as
#: memoryview segments (vectored send); smaller ones are copied into
#: the contiguous header allocation where a copy is cheaper than a
#: segment
_SPLICE_THRESHOLD = 512


class _Fallback(Exception):
    """Internal: this message needs the interpreted path."""


def _key(name: str) -> bytes:
    """A dict key as encoded on the wire: u32 length + utf-8 bytes."""
    encoded = name.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def _s(text: str) -> bytes:
    """A string value as encoded on the wire: S tag + u32 + utf-8."""
    encoded = text.encode("utf-8")
    return b"S" + _U32.pack(len(encoded)) + encoded


# ---------------------------------------------------------------------------
# frame assembly
# ---------------------------------------------------------------------------


class FrameBuilder:
    """Builds one frame in a single growing allocation.

    The first 6 bytes are reserved for magic + u32 body length and
    patched with ``pack_into`` at :meth:`finish`.  Large payloads are
    spliced in as segments via :meth:`splice`; everything else lands in
    the current contiguous tail (``cur``).  Callers must re-read
    :attr:`cur` after every :meth:`splice`.
    """

    __slots__ = ("first", "cur", "parts")

    def __init__(self) -> None:
        self.first = bytearray(6)
        self.cur = self.first
        self.parts: Optional[List[Any]] = None

    def splice(self, view: Any) -> None:
        """Append a payload segment by reference (no copy)."""
        if self.parts is None:
            self.parts = [self.first]
        self.parts.append(view)
        self.cur = bytearray()
        self.parts.append(self.cur)

    def finish(self, magic: bytes) -> Any:
        first = self.first
        if self.parts is None:
            first[0:2] = magic
            _U32.pack_into(first, 2, len(first) - 6)
            return bytes(first)
        parts = [p for p in self.parts if isinstance(p, memoryview)
                 or len(p) > 0 or p is first]
        total = -6
        for part in parts:
            total += part.nbytes if isinstance(part, memoryview) \
                else len(part)
        first[0:2] = magic
        _U32.pack_into(first, 2, total)
        return WireFrame(parts)


def _payload_view(value: Any) -> Tuple[Any, int]:
    """Normalize a byte-like payload to (spliceable, nbytes)."""
    if isinstance(value, WireBuffer):
        value = value.view()
    if isinstance(value, bytes):
        return value, len(value)
    if isinstance(value, bytearray):
        return value, len(value)
    if isinstance(value, memoryview):
        if not value.c_contiguous:
            value = bytes(value)
            return value, len(value)
        if value.ndim != 1 or value.itemsize != 1:
            value = value.cast("B")
        return value, value.nbytes
    raise _Fallback


def _append_payload(builder: FrameBuilder, value: Any) -> None:
    """B-tagged payload: splice big ones, copy small ones."""
    view, nbytes = _payload_view(value)
    cur = builder.cur
    cur += b"B"
    cur += _U32.pack(nbytes)
    if nbytes >= _SPLICE_THRESHOLD:
        builder.splice(view if isinstance(view, memoryview)
                       else memoryview(view).cast("B")
                       if isinstance(view, bytearray) else view)
    else:
        cur += view


# ---------------------------------------------------------------------------
# marshaling tables (constructed at generated-module import time)
# ---------------------------------------------------------------------------

#: scalar/handle kind strings a table may declare
_KINDS = ("int", "float", "str", "ints", "num")


def _kind_info(kinds: Dict[str, str], what: str) -> Dict[bytes, Tuple[str, str]]:
    info: Dict[bytes, Tuple[str, str]] = {}
    for name, kind in kinds.items():
        if kind not in _KINDS:
            raise ValueError(f"{what}: unknown kind {kind!r} for {name!r}")
        info[name.encode("utf-8")] = (kind, name)
    return info


class CommandTable:
    """Precomputed wire layout for one function's Command frames."""

    def __init__(self, api: str, fn: str,
                 scalars: Optional[Dict[str, str]] = None,
                 handles: Optional[Dict[str, str]] = None,
                 inbufs: Iterable[str] = (),
                 outsz: Iterable[str] = ()) -> None:
        scalars = scalars or {}
        handles = handles or {}
        self.api = api
        self.fn = fn
        # --- encode-side constants (key bytes, tags folded in) ---
        self.vm_key = _key("vm") + b"S"
        self.api_fn = (_key("api") + _s(api) + _key("fn") + _s(fn))
        self.mode_sync = _key("mode") + _s("sync")
        self.mode_async = _key("mode") + _s("async")
        self.scalars_key = _key("scalars") + b"M"
        self.skey = {n: _key(n) for n in scalars}
        self.skind = dict(scalars)
        self.handles_key = _key("handles") + b"M"
        self.hkey = {n: _key(n) for n in handles}
        self.hkind = dict(handles)
        self.inbufs_key = _key("inbufs") + b"M"
        self.bkey = {n: _key(n) for n in inbufs}
        self.outsz_key = _key("outsz") + b"M"
        self.okey = {n: _key(n) + b"I" for n in outsz}
        self.t_key = _key("t")
        # --- decode-side maps (wire key bytes → kind + name) ---
        self.sinfo = _kind_info(scalars, f"{fn} scalars")
        self.hinfo = _kind_info(handles, f"{fn} handles")
        self.binfo = {n.encode("utf-8"): n for n in inbufs}
        self.oinfo = {n.encode("utf-8"): n for n in outsz}
        # --- decode-side ordered fast path: the overwhelmingly common
        # frame carries every parameter in spec order, so each key can
        # be matched as one precomputed constant (no length unpack, no
        # slice, no dict probe) ---
        self.sordered = [(self.skey[n], k, n) for n, k in scalars.items()]
        self.hordered = [(self.hkey[n], k, n) for n, k in handles.items()]
        self.bordered = [(kb + b"B", n) for n, kb in self.bkey.items()]
        self.oordered = [(kb, n) for n, kb in self.okey.items()]
        # --- encode-side fused runs: when a message carries every
        # declared parameter of a section (the conformant shape), the
        # static bytes between the sections collapse into one append ---
        self.nscalars = len(scalars)
        self.nhandles = len(handles)
        self.ninbufs = len(self.bkey)
        self.noutsz = len(self.okey)
        count_s = _U32.pack(self.nscalars)
        self.pre_sync = (self.api_fn + self.mode_sync
                         + self.scalars_key + count_s)
        self.pre_async = (self.api_fn + self.mode_async
                          + self.scalars_key + count_s)
        self.handles_full = self.handles_key + _U32.pack(self.nhandles)
        self.inbufs_full = self.inbufs_key + _U32.pack(self.ninbufs)
        self.outsz_full = self.outsz_key + _U32.pack(self.noutsz)
        self.t_key_d = self.t_key + b"D"


class ReplyTable:
    """Precomputed wire layout for one function's Reply frames."""

    def __init__(self, ret: str = "scalar",
                 outs: Iterable[str] = (),
                 oscal: Iterable[str] = (),
                 new: Iterable[str] = ()) -> None:
        if ret not in ("scalar", "handle", "none"):
            raise ValueError(f"unknown return kind {ret!r}")
        self.ret = ret
        self.ret_key = _key("ret")
        self.outs_key = _key("outs") + b"M"
        self.outkey = {n: _key(n) for n in outs}
        self.oscal_key = _key("oscal") + b"M"
        self.oskey = {n: _key(n) for n in oscal}
        self.new_key = _key("new") + b"M"
        new_names = list(new)
        if ret == "handle":
            new_names.append("__ret__")
        self.newkey = {n: _key(n) for n in new_names}
        #: callbacks empty + error None, the fast-path common case
        self.cbs0_err_none = (_key("cbs") + b"L" + _U32.pack(0)
                              + _key("err") + b"N")
        self.t_key = _key("t")
        # --- encode-side fused runs (see CommandTable) ---
        self.nouts = len(self.outkey)
        self.noscal = len(self.oskey)
        self.nnew = len(self.newkey)
        self.ret_key_n = self.ret_key + b"N"
        self.ret_key_i = self.ret_key + b"I"
        self.outs_full = self.outs_key + _U32.pack(self.nouts)
        self.oscal_full = self.oscal_key + _U32.pack(self.noscal)
        self.new_full = self.new_key + _U32.pack(self.nnew)
        self.tail_d = self.cbs0_err_none + self.t_key + b"D"
        # --- decode-side ordered fast path (see CommandTable) ---
        self.outordered = [(kb + b"B", n) for n, kb in self.outkey.items()]
        self.osordered = [(kb, n) for n, kb in self.oskey.items()]
        self.newordered = [(kb, n) for n, kb in self.newkey.items()]
        self.outinfo = {n.encode("utf-8"): n for n in outs}
        self.osinfo = {n.encode("utf-8"): n for n in oscal}
        self.newinfo = {n.encode("utf-8"): n for n in new_names}


# ---------------------------------------------------------------------------
# encode drivers
# ---------------------------------------------------------------------------

#: body prefix every well-formed single command shares:
#: M dict(10), key "seq", I — dict(11) when it carries trace context
_CMD_PREFIX = b"M" + _U32.pack(10) + _key("seq") + b"I"
_CMD_PREFIX_TR = b"M" + _U32.pack(11) + _key("seq") + b"I"
#: the same for a single reply: dict(8), dict(9) when traced
_REPLY_PREFIX = b"M" + _U32.pack(8) + _key("seq") + b"I"
_REPLY_PREFIX_TR = b"M" + _U32.pack(9) + _key("seq") + b"I"
#: the trace-context entry after ``t``: a command's [trace_id, span_id]
#: pair, a reply's bare span id
_TR_KEY = _key("tr")
_TR_PAIR = _TR_KEY + b"L" + _U32.pack(2)
_TR_KEY_I = _TR_KEY + b"I"


def _enc_time(cur: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is float:
        cur += _TF64.pack(b"D", value)
    elif kind is int:
        cur += _TI64.pack(b"I", value)
    else:
        raise _Fallback


def _enc_plain(cur: bytearray, value: Any) -> None:
    """None / int / float / str / flat int list, exact-typed."""
    kind = type(value)
    if value is None:
        cur += b"N"
    elif kind is int:
        cur += _TI64.pack(b"I", value)
    elif kind is float:
        cur += _TF64.pack(b"D", value)
    elif kind is str:
        encoded = value.encode("utf-8")
        cur += b"S"
        cur += _U32.pack(len(encoded))
        cur += encoded
    elif kind is list:
        cur += b"L"
        cur += _U32.pack(len(value))
        for item in value:
            if type(item) is not int:
                raise _Fallback
            cur += _TI64.pack(b"I", item)
    else:
        raise _Fallback


def _trace_ok(trace_id: Any, span_id: Any) -> bool:
    """The trace-context shapes the layout carries (bool is no int)."""
    return ((trace_id is None or type(trace_id) is str)
            and (span_id is None or type(span_id) is int))


def _enc_kinded(cur: bytearray, value: Any, kind: str) -> None:
    vt = type(value)
    if kind == "int":
        if vt is int:
            cur += _TI64.pack(b"I", value)
        elif value is None:
            cur += b"N"
        else:
            raise _Fallback
    elif kind == "float":
        if vt is float:
            cur += _TF64.pack(b"D", value)
        elif vt is int:
            cur += _TI64.pack(b"I", value)
        elif value is None:
            cur += b"N"
        else:
            raise _Fallback
    elif kind == "str":
        if vt is str:
            encoded = value.encode("utf-8")
            cur += b"S"
            cur += _U32.pack(len(encoded))
            cur += encoded
        elif value is None:
            cur += b"N"
        else:
            raise _Fallback
    elif kind == "ints":
        if vt is list:
            cur += b"L"
            cur += _U32.pack(len(value))
            for item in value:
                if type(item) is not int:
                    raise _Fallback
                cur += _TI64.pack(b"I", item)
        elif value is None:
            cur += b"N"
        else:
            raise _Fallback
    elif kind == "num":
        if vt is int:
            cur += _TI64.pack(b"I", value)
        elif vt is float:
            cur += _TF64.pack(b"D", value)
        elif value is None:
            cur += b"N"
        else:
            raise _Fallback
    else:
        raise _Fallback


def _enc_command_body(builder: FrameBuilder, command: Command,
                      table: CommandTable) -> None:
    """The command's wire dict, byte-identical to the interpreted path."""
    if command.cached_refs:
        raise _Fallback
    if type(command.seq) is not int or type(command.vm_id) is not str:
        raise _Fallback
    trace_id, span_id = command.trace_id, command.span_id
    traced = trace_id is not None or span_id is not None
    if traced and not _trace_ok(trace_id, span_id):
        raise _Fallback
    cur = builder.cur
    cur += _CMD_PREFIX_TR if traced else _CMD_PREFIX
    cur += _I64.pack(command.seq)
    cur += table.vm_key
    vm = command.vm_id.encode("utf-8")
    cur += _U32.pack(len(vm))
    cur += vm
    mode = command.mode
    scalars = command.scalars
    if len(scalars) == table.nscalars:
        # conformant shape: api+fn+mode+section header in one append
        if mode == "sync":
            cur += table.pre_sync
        elif mode == "async":
            cur += table.pre_async
        else:
            raise _Fallback
    else:
        cur += table.api_fn
        if mode == "sync":
            cur += table.mode_sync
        elif mode == "async":
            cur += table.mode_async
        else:
            raise _Fallback
        cur += table.scalars_key
        cur += _U32.pack(len(scalars))
    skey, skind = table.skey, table.skind
    for name, value in scalars.items():
        kb = skey.get(name)
        if kb is None:
            raise _Fallback
        cur += kb
        kind = skind[name]
        if kind == "int":  # the dominant kind, inlined
            if type(value) is int:
                cur += _TI64.pack(b"I", value)
            elif value is None:
                cur += b"N"
            else:
                raise _Fallback
        else:
            _enc_kinded(cur, value, kind)
    handles = command.handles
    if len(handles) == table.nhandles:
        cur += table.handles_full
    else:
        cur += table.handles_key
        cur += _U32.pack(len(handles))
    hkey, hkind = table.hkey, table.hkind
    for name, value in handles.items():
        kb = hkey.get(name)
        if kb is None:
            raise _Fallback
        cur += kb
        kind = hkind[name]
        if kind == "int":
            if type(value) is int:
                cur += _TI64.pack(b"I", value)
            elif value is None:
                cur += b"N"
            else:
                raise _Fallback
        else:
            _enc_kinded(cur, value, kind)
    in_buffers = command.in_buffers
    if len(in_buffers) == table.ninbufs:
        cur += table.inbufs_full
    else:
        cur += table.inbufs_key
        cur += _U32.pack(len(in_buffers))
    bkey = table.bkey
    for name, value in in_buffers.items():
        kb = bkey.get(name)
        if kb is None:
            raise _Fallback
        builder.cur += kb
        _append_payload(builder, value)
    cur = builder.cur
    out_sizes = command.out_sizes
    if len(out_sizes) == table.noutsz:
        cur += table.outsz_full
    else:
        cur += table.outsz_key
        cur += _U32.pack(len(out_sizes))
    okey = table.okey
    for name, value in out_sizes.items():
        kb = okey.get(name)
        if kb is None or type(value) is not int:
            raise _Fallback
        cur += kb
        cur += _I64.pack(value)
    issue_time = command.issue_time
    if type(issue_time) is float:
        cur += table.t_key_d
        cur += _F64.pack(issue_time)
    else:
        cur += table.t_key
        _enc_time(cur, issue_time)
    if traced:
        cur += _TR_PAIR
        _enc_plain(cur, trace_id)
        _enc_plain(cur, span_id)


def _enc_reply_body(cur: bytearray, reply: Reply,
                    table: ReplyTable) -> None:
    if reply.error is not None or reply.callbacks:
        raise _Fallback
    span_id = reply.span_id
    if type(reply.seq) is not int or not _trace_ok(None, span_id):
        raise _Fallback
    cur += _REPLY_PREFIX if span_id is None else _REPLY_PREFIX_TR
    cur += _I64.pack(reply.seq)
    value = reply.return_value
    if value is None:  # the two dominant return shapes, inlined
        cur += table.ret_key_n
    elif type(value) is int:
        cur += table.ret_key_i
        cur += _I64.pack(value)
    else:
        cur += table.ret_key
        _enc_plain(cur, value)
    out_payloads = reply.out_payloads
    if len(out_payloads) == table.nouts:
        cur += table.outs_full
    else:
        cur += table.outs_key
        cur += _U32.pack(len(out_payloads))
    outkey = table.outkey
    for name, value in out_payloads.items():
        kb = outkey.get(name)
        if kb is None:
            raise _Fallback
        cur += kb
        view, nbytes = _payload_view(value)
        cur += _TU32.pack(b"B", nbytes)
        cur += view
    out_scalars = reply.out_scalars
    if len(out_scalars) == table.noscal:
        cur += table.oscal_full
    else:
        cur += table.oscal_key
        cur += _U32.pack(len(out_scalars))
    oskey = table.oskey
    for name, value in out_scalars.items():
        kb = oskey.get(name)
        if kb is None:
            raise _Fallback
        cur += kb
        if type(value) is int:
            cur += _TI64.pack(b"I", value)
        else:
            _enc_plain(cur, value)
    new_handles = reply.new_handles
    if len(new_handles) == table.nnew:
        cur += table.new_full
    else:
        cur += table.new_key
        cur += _U32.pack(len(new_handles))
    newkey = table.newkey
    for name, value in new_handles.items():
        kb = newkey.get(name)
        if kb is None:
            raise _Fallback
        cur += kb
        if type(value) is int:
            cur += _TI64.pack(b"I", value)
        else:
            _enc_plain(cur, value)
    complete_time = reply.complete_time
    if type(complete_time) is float:
        cur += table.tail_d
        cur += _F64.pack(complete_time)
    else:
        cur += table.cbs0_err_none
        cur += table.t_key
        _enc_time(cur, complete_time)
    if span_id is not None:
        cur += _TR_KEY_I
        cur += _I64.pack(span_id)


# ---------------------------------------------------------------------------
# decode drivers (all reads bounds-checked against the frame end)
# ---------------------------------------------------------------------------

_VM_KEY = _key("vm") + b"S"
_API_KEY = _key("api") + b"S"
_FN_KEY = _key("fn") + b"S"
_BATCH_PREFIX = b"M" + _U32.pack(3) + _key("vm") + b"S"
_CMDS_KEY = _key("cmds") + b"L"
_T_KEY = _key("t")
_RB_PREFIX = b"M" + _U32.pack(2) + _key("replies") + b"L"

_LP = len(_CMD_PREFIX)
_LRP = len(_REPLY_PREFIX)
_LTR = len(_TR_KEY)
_LTRP = len(_TR_PAIR)
_LVM = len(_VM_KEY)
_LAPI = len(_API_KEY)
_LFN = len(_FN_KEY)


#: integer tag bytes for single-index comparisons (faster than slicing)
_TAG_N, _TAG_I, _TAG_D, _TAG_S, _TAG_L, _TAG_B = (
    78, 73, 68, 83, 76, 66)  # N I D S L B


def _dec_str(data: bytes, o: int, end: int) -> Tuple[str, int]:
    length = _U32.unpack_from(data, o)[0]
    o += 4
    if length > end - o:
        raise _Fallback
    return str(data[o:o + length], "utf-8"), o + length


def _dec_kinded(data: bytes, o: int, end: int, kind: str,
                ) -> Tuple[Any, int]:
    tag = data[o]
    o += 1
    if tag == _TAG_N:
        return None, o
    if kind == "int":
        if tag != _TAG_I:
            raise _Fallback
        return _I64.unpack_from(data, o)[0], o + 8
    if kind == "float" or kind == "num":
        if tag == _TAG_D:
            return _F64.unpack_from(data, o)[0], o + 8
        if tag == _TAG_I:
            return _I64.unpack_from(data, o)[0], o + 8
        raise _Fallback
    if kind == "str":
        if tag != _TAG_S:
            raise _Fallback
        return _dec_str(data, o, end)
    if kind == "ints":
        if tag != _TAG_L:
            raise _Fallback
        count = _U32.unpack_from(data, o)[0]
        o += 4
        if count * 9 > end - o:
            raise _Fallback
        items = []
        for _ in range(count):
            if data[o] != _TAG_I:
                raise _Fallback
            items.append(_I64.unpack_from(data, o + 1)[0])
            o += 9
        return items, o
    raise _Fallback


def _dec_plain(data: bytes, o: int, end: int) -> Tuple[Any, int]:
    """N / I / D / S / flat-int L — the reply value shapes."""
    tag = data[o]
    o += 1
    if tag == _TAG_N:
        return None, o
    if tag == _TAG_I:
        return _I64.unpack_from(data, o)[0], o + 8
    if tag == _TAG_D:
        return _F64.unpack_from(data, o)[0], o + 8
    if tag == _TAG_S:
        return _dec_str(data, o, end)
    if tag == _TAG_L:
        count = _U32.unpack_from(data, o)[0]
        o += 4
        if count * 9 > end - o:
            raise _Fallback
        items = []
        for _ in range(count):
            if data[o] != _TAG_I:
                raise _Fallback
            items.append(_I64.unpack_from(data, o + 1)[0])
            o += 9
        return items, o
    raise _Fallback


def _dec_section(data: bytes, o: int, end: int, key_const: bytes,
                 info: Dict[bytes, Tuple[str, str]],
                 ordered: List[Tuple[bytes, str, str]],
                 ) -> Tuple[Dict[str, Any], int]:
    """One kinded M-section (scalars / handles)."""
    lk = len(key_const)
    if not data.startswith(key_const, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    result: Dict[str, Any] = {}
    if count == len(ordered):
        # fast path: every parameter present, spec order — each key is
        # one constant compare instead of unpack + slice + dict probe
        start = o
        for key_full, kind, name in ordered:
            if not data.startswith(key_full, o):
                # order deviates (legal: dicts are order-free on the
                # wire) — rescan generically from the section start
                result.clear()
                o = start
                break
            o += len(key_full)
            if kind == "int":  # the dominant kind, inlined
                tag = data[o]
                if tag == _TAG_I:
                    result[name] = _I64.unpack_from(data, o + 1)[0]
                    o += 9
                elif tag == _TAG_N:
                    result[name] = None
                    o += 1
                else:
                    raise _Fallback
            else:
                result[name], o = _dec_kinded(data, o, end, kind)
        else:
            return result, o
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        entry = info.get(data[o:o + klen])
        if entry is None:
            raise _Fallback
        o += klen
        kind, name = entry
        result[name], o = _dec_kinded(data, o, end, kind)
    return result, o


def _scan_command(data: bytes, o: int, end: int,
                  wire_tables: Dict[bytes, Any],
                  ) -> Tuple[Any, int, str, bool, int]:
    """Parse the static command prefix; look up the function's tables.

    ``wire_tables`` is keyed by the raw ``api``+``fn`` wire region
    (each table's ``api_fn`` constant), so the lookup needs no utf-8
    decode and no tuple allocation.  Returns ``(entry, seq, vm_id,
    traced, offset)`` with ``offset`` positioned at the ``mode`` key
    and ``traced`` telling whether the dict ends in a ``tr`` entry.
    """
    if data.startswith(_CMD_PREFIX, o):
        traced = False
    elif data.startswith(_CMD_PREFIX_TR, o):
        traced = True
    else:
        raise _Fallback
    o += _LP
    seq = _I64.unpack_from(data, o)[0]
    o += 8
    if not data.startswith(_VM_KEY, o):
        raise _Fallback
    vm_id, o = _dec_str(data, o + _LVM, end)
    region = o
    if not data.startswith(_API_KEY, o):
        raise _Fallback
    o += _LAPI + 4 + _U32.unpack_from(data, o + _LAPI)[0]
    if not data.startswith(_FN_KEY, o):
        raise _Fallback
    o += _LFN + 4 + _U32.unpack_from(data, o + _LFN)[0]
    if o > end:
        raise _Fallback
    entry = wire_tables.get(data[region:o])
    if entry is None:
        raise _Fallback
    return entry, seq, vm_id, traced, o


def _dec_command_rest(data: bytes, o: int, end: int, table: CommandTable,
                      seq: int, vm_id: str, traced: bool,
                      mv: memoryview) -> Tuple[Command, int]:
    lms = len(table.mode_sync)
    lma = len(table.mode_async)
    if data.startswith(table.mode_sync, o):
        mode = "sync"
        o += lms
    elif data.startswith(table.mode_async, o):
        mode = "async"
        o += lma
    else:
        raise _Fallback
    scalars, o = _dec_section(data, o, end, table.scalars_key,
                              table.sinfo, table.sordered)
    handles, o = _dec_section(data, o, end, table.handles_key,
                              table.hinfo, table.hordered)
    # in-buffers: zero-copy memoryview slices over the frame
    lk = len(table.inbufs_key)
    if not data.startswith(table.inbufs_key, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    in_buffers: Dict[str, Any] = {}
    if count == table.ninbufs:
        start = o
        for key_b, name in table.bordered:
            if not data.startswith(key_b, o):
                in_buffers.clear()
                o = start
                break
            o += len(key_b)
            length = _U32.unpack_from(data, o)[0]
            o += 4
            if length > end - o:
                raise _Fallback
            in_buffers[name] = mv[o:o + length]
            o += length
        else:
            count = 0  # ordered fast path consumed every entry
    binfo = table.binfo
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        name = binfo.get(data[o:o + klen])
        if name is None:
            raise _Fallback
        o += klen
        if data[o] != _TAG_B:
            raise _Fallback
        length = _U32.unpack_from(data, o + 1)[0]
        o += 5
        if length > end - o:
            raise _Fallback
        in_buffers[name] = mv[o:o + length]
        o += length
    lk = len(table.outsz_key)
    if not data.startswith(table.outsz_key, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    out_sizes: Dict[str, int] = {}
    if count == table.noutsz:
        start = o
        for key_i, name in table.oordered:  # key constant folds the I tag
            if not data.startswith(key_i, o):
                out_sizes.clear()
                o = start
                break
            out_sizes[name] = _I64.unpack_from(data, o + len(key_i))[0]
            o += len(key_i) + 8
        else:
            count = 0  # ordered fast path consumed every entry
    oinfo = table.oinfo
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        name = oinfo.get(data[o:o + klen])
        if name is None:
            raise _Fallback
        o += klen
        if data[o] != _TAG_I:
            raise _Fallback
        out_sizes[name] = _I64.unpack_from(data, o + 1)[0]
        o += 9
    lk = len(table.t_key_d)
    if data.startswith(table.t_key_d, o):  # key + D tag in one compare
        issue_time: Any = _F64.unpack_from(data, o + lk)[0]
        o += lk + 8
    elif data.startswith(table.t_key, o):
        o += len(table.t_key)
        if data[o] != _TAG_I:
            raise _Fallback
        issue_time = _I64.unpack_from(data, o + 1)[0]
        o += 9
    else:
        raise _Fallback
    trace_id = span_id = None
    if traced:
        if not data.startswith(_TR_PAIR, o):
            raise _Fallback
        trace_id, o = _dec_plain(data, o + _LTRP, end)
        span_id, o = _dec_plain(data, o, end)
        if not _trace_ok(trace_id, span_id):
            raise _Fallback
    # dataclass __init__ re-runs default factories; the fields are all
    # in hand, so build the instance dict directly
    command = Command.__new__(Command)
    command.__dict__ = {
        "seq": seq, "vm_id": vm_id, "api": table.api,
        "function": table.fn, "mode": mode, "scalars": scalars,
        "handles": handles, "in_buffers": in_buffers,
        "out_sizes": out_sizes, "cached_refs": {},
        "issue_time": issue_time, "trace_id": trace_id, "span_id": span_id,
    }
    return command, o


def _dec_reply_body(data: bytes, o: int, end: int, table: ReplyTable,
                    mv: memoryview) -> Tuple[Reply, int]:
    if data.startswith(_REPLY_PREFIX, o):
        traced = False
    elif data.startswith(_REPLY_PREFIX_TR, o):
        traced = True
    else:
        raise _Fallback
    o += _LRP
    seq = _I64.unpack_from(data, o)[0]
    o += 8
    lk = len(table.ret_key_i)
    if data.startswith(table.ret_key_i, o):  # key + I tag in one compare
        return_value: Any = _I64.unpack_from(data, o + lk)[0]
        o += lk + 8
    elif data.startswith(table.ret_key_n, o):
        return_value = None
        o += len(table.ret_key_n)
    elif data.startswith(table.ret_key, o):
        return_value, o = _dec_plain(data, o + len(table.ret_key), end)
    else:
        raise _Fallback
    # outs: zero-copy views
    lk = len(table.outs_key)
    if not data.startswith(table.outs_key, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    out_payloads: Dict[str, Any] = {}
    if count == table.nouts:
        start = o
        for key_b, name in table.outordered:  # key folds the B tag
            if not data.startswith(key_b, o):
                out_payloads.clear()
                o = start
                break
            o += len(key_b)
            length = _U32.unpack_from(data, o)[0]
            o += 4
            if length > end - o:
                raise _Fallback
            out_payloads[name] = mv[o:o + length]
            o += length
        else:
            count = 0  # ordered fast path consumed every entry
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        name = table.outinfo.get(data[o:o + klen])
        if name is None:
            raise _Fallback
        o += klen
        if data[o] != _TAG_B:
            raise _Fallback
        length = _U32.unpack_from(data, o + 1)[0]
        o += 5
        if length > end - o:
            raise _Fallback
        out_payloads[name] = mv[o:o + length]
        o += length
    lk = len(table.oscal_key)
    if not data.startswith(table.oscal_key, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    out_scalars: Dict[str, Any] = {}
    if count == table.noscal:
        start = o
        for key_full, name in table.osordered:
            if not data.startswith(key_full, o):
                out_scalars.clear()
                o = start
                break
            o += len(key_full)
            if data[o] == _TAG_I:  # the dominant shape, inlined
                out_scalars[name] = _I64.unpack_from(data, o + 1)[0]
                o += 9
            else:
                out_scalars[name], o = _dec_plain(data, o, end)
        else:
            count = 0  # ordered fast path consumed every entry
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        entry = table.osinfo.get(data[o:o + klen])
        if entry is None:
            raise _Fallback
        o += klen
        out_scalars[entry], o = _dec_plain(data, o, end)
    lk = len(table.new_key)
    if not data.startswith(table.new_key, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count * 5 > end - o:
        raise _Fallback
    new_handles: Dict[str, Any] = {}
    if count == table.nnew:
        start = o
        for key_full, name in table.newordered:
            if not data.startswith(key_full, o):
                new_handles.clear()
                o = start
                break
            o += len(key_full)
            if data[o] == _TAG_I:
                new_handles[name] = _I64.unpack_from(data, o + 1)[0]
                o += 9
            else:
                new_handles[name], o = _dec_plain(data, o, end)
        else:
            count = 0  # ordered fast path consumed every entry
    for _ in range(count):
        klen = _U32.unpack_from(data, o)[0]
        o += 4
        if klen > end - o:
            raise _Fallback
        entry = table.newinfo.get(data[o:o + klen])
        if entry is None:
            raise _Fallback
        o += klen
        new_handles[entry], o = _dec_plain(data, o, end)
    lk = len(table.tail_d)
    if data.startswith(table.tail_d, o):  # cbs+err+t key+D in one compare
        complete_time: Any = _F64.unpack_from(data, o + lk)[0]
        o += lk + 8
    elif data.startswith(table.cbs0_err_none, o):
        o += len(table.cbs0_err_none)
        if not data.startswith(table.t_key, o):
            raise _Fallback
        o += len(table.t_key)
        if data[o] != _TAG_I:
            raise _Fallback
        complete_time = _I64.unpack_from(data, o + 1)[0]
        o += 9
    else:
        raise _Fallback
    span_id = None
    if traced:
        if not data.startswith(_TR_KEY, o):
            raise _Fallback
        span_id, o = _dec_plain(data, o + _LTR, end)
        if not _trace_ok(None, span_id):
            raise _Fallback
    # dataclass __init__ re-runs default factories; build directly
    reply = Reply.__new__(Reply)
    reply.__dict__ = {
        "seq": seq, "return_value": return_value,
        "out_payloads": out_payloads, "out_scalars": out_scalars,
        "new_handles": new_handles, "callbacks": [], "error": None,
        "complete_time": complete_time, "span_id": span_id,
    }
    return reply, o


# ---------------------------------------------------------------------------
# whole-frame drivers
# ---------------------------------------------------------------------------


def _enc_command_frame(table: CommandTable, command: Command) -> Any:
    builder = FrameBuilder()
    _enc_command_body(builder, command, table)
    return builder.finish(_codec._COMMAND_MAGIC)


def _enc_batch_frame(tables: Dict[Tuple[str, str], Any],
                     batch: CommandBatch) -> Any:
    if type(batch.vm_id) is not str or not batch.commands:
        raise _Fallback
    builder = FrameBuilder()
    cur = builder.cur
    cur += _BATCH_PREFIX
    vm = batch.vm_id.encode("utf-8")
    cur += _U32.pack(len(vm))
    cur += vm
    cur += _CMDS_KEY
    cur += _U32.pack(len(batch.commands))
    for command in batch.commands:
        entry = tables.get((command.api, command.function))
        if entry is None:
            raise _Fallback
        _enc_command_body(builder, command, entry[0])
    cur = builder.cur
    cur += _T_KEY
    _enc_time(cur, batch.flush_time)
    return builder.finish(_codec._COMMAND_BATCH_MAGIC)


def _enc_reply_frame(table: ReplyTable, reply: Reply) -> bytes:
    builder = FrameBuilder()
    _enc_reply_body(builder.cur, reply, table)
    return builder.finish(_codec._REPLY_MAGIC)


def _enc_reply_batch_frame(tables: Dict[Tuple[str, str], Any],
                           batch: ReplyBatch,
                           reply_to: CommandBatch) -> bytes:
    if len(batch.replies) != len(reply_to.commands):
        raise _Fallback
    builder = FrameBuilder()
    cur = builder.cur
    cur += _RB_PREFIX
    cur += _U32.pack(len(batch.replies))
    for reply, command in zip(batch.replies, reply_to.commands):
        entry = tables.get((command.api, command.function))
        if entry is None:
            raise _Fallback
        _enc_reply_body(cur, reply, entry[1])
    cur += _T_KEY
    _enc_time(cur, batch.complete_time)
    return builder.finish(_codec._REPLY_BATCH_MAGIC)


def _frame_bounds(data: bytes) -> Tuple[bytes, int]:
    if len(data) < 6:
        raise _Fallback
    length = _U32.unpack_from(data, 2)[0]
    end = 6 + length
    if end > len(data):
        raise _Fallback
    return data[0:2], end


def _dec_command_frame(wire_tables: Dict[bytes, Any],
                       data: bytes) -> Command:
    magic, end = _frame_bounds(data)
    if magic != _codec._COMMAND_MAGIC:
        raise _Fallback
    mv = memoryview(data)
    entry, seq, vm_id, traced, o = _scan_command(data, 6, end, wire_tables)
    command, o = _dec_command_rest(data, o, end, entry[0], seq, vm_id,
                                   traced, mv)
    if o != end:
        raise _Fallback
    return command


def _dec_batch_frame(wire_tables: Dict[bytes, Any],
                     data: bytes) -> CommandBatch:
    magic, end = _frame_bounds(data)
    if magic != _codec._COMMAND_BATCH_MAGIC:
        raise _Fallback
    mv = memoryview(data)
    o = 6
    lk = len(_BATCH_PREFIX)
    if not data.startswith(_BATCH_PREFIX, o):
        raise _Fallback
    vm_id, o = _dec_str(data, o + lk, end)
    lk = len(_CMDS_KEY)
    if not data.startswith(_CMDS_KEY, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count == 0 or count > end - o:
        raise _Fallback
    commands: List[Command] = []
    for _ in range(count):
        entry, seq, cmd_vm, traced, o = _scan_command(data, o, end,
                                                      wire_tables)
        command, o = _dec_command_rest(data, o, end, entry[0], seq,
                                       cmd_vm, traced, mv)
        commands.append(command)
    lk = len(_T_KEY)
    if not data.startswith(_T_KEY, o):
        raise _Fallback
    o += lk
    flush_time, o = _dec_kinded(data, o, end, "num")
    if flush_time is None or o != end:
        raise _Fallback
    return CommandBatch(vm_id=vm_id, commands=commands,
                        flush_time=flush_time)


def _dec_reply_frame(table: ReplyTable, data: bytes) -> Reply:
    magic, end = _frame_bounds(data)
    if magic != _codec._REPLY_MAGIC:
        raise _Fallback
    mv = memoryview(data)
    reply, o = _dec_reply_body(data, 6, end, table, mv)
    if o != end:
        raise _Fallback
    return reply


def _dec_reply_batch_frame(tables: Dict[Tuple[str, str], Any],
                           data: bytes,
                           reply_to: CommandBatch) -> ReplyBatch:
    magic, end = _frame_bounds(data)
    if magic != _codec._REPLY_BATCH_MAGIC:
        raise _Fallback
    mv = memoryview(data)
    o = 6
    lk = len(_RB_PREFIX)
    if not data.startswith(_RB_PREFIX, o):
        raise _Fallback
    o += lk
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count != len(reply_to.commands):
        raise _Fallback
    replies: List[Reply] = []
    for command in reply_to.commands:
        entry = tables.get((command.api, command.function))
        if entry is None:
            raise _Fallback
        reply, o = _dec_reply_body(data, o, end, entry[1], mv)
        replies.append(reply)
    lk = len(_T_KEY)
    if not data.startswith(_T_KEY, o):
        raise _Fallback
    o += lk
    complete_time, o = _dec_kinded(data, o, end, "num")
    if complete_time is None or o != end:
        raise _Fallback
    return ReplyBatch(replies=replies, complete_time=complete_time)


#: every surprise the fast decoders may hit on hostile frames — caught
#: and retried on the interpreted path, which raises the canonical
#: CodecError (or succeeds, for layouts the fast path doesn't cover)
_DECODE_SURPRISES = (_Fallback, struct.error, IndexError,
                     UnicodeDecodeError, OverflowError)


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


class SpecializedCodec(WireCodec):
    """Generated fast-path codec with interpreted fallback.

    Holds a registry of per-function marshaling tables merged from
    generated codec modules (:meth:`register_module`).  Messages whose
    function has no registered table — or that deviate from the
    generated layout in any way — transparently take the interpreted
    path, so this codec is *always* safe to install, byte-identical on
    the wire, and never weaker at the trust boundary.
    """

    name = "specialized"
    zero_copy = True
    batch_aware = True

    def __init__(self, modules: Iterable[Any] = ()) -> None:
        #: (api, fn) → (CommandTable, ReplyTable)
        self.tables: Dict[Tuple[str, str], Any] = {}
        #: raw api+fn wire region → the same entries (command decode
        #: resolves tables without decoding the name strings)
        self.wire_tables: Dict[bytes, Any] = {}
        #: fallback + fast-path counters, surfaced by benchmarks/tests
        self.fast_encodes = 0
        self.fast_decodes = 0
        self.fallback_encodes = 0
        self.fallback_decodes = 0
        for module in modules:
            self.register_module(module)

    def register_module(self, module: Any) -> None:
        """Merge one generated ``<api>_codec`` module's tables."""
        api = module.API_NAME
        command_tables = module.COMMAND_TABLES
        reply_tables = module.REPLY_TABLES
        for fn, ctable in command_tables.items():
            self.register_tables(api, fn, ctable, reply_tables[fn])

    def register_tables(self, api: str, fn: str, ctable: CommandTable,
                        rtable: ReplyTable) -> None:
        entry = (ctable, rtable)
        self.tables[(api, fn)] = entry
        self.wire_tables[ctable.api_fn] = entry

    # -- encode -----------------------------------------------------------

    def encode_command(self, command: Any) -> FrameLike:
        try:
            if type(command) is Command:
                entry = self.tables.get((command.api, command.function))
                if entry is None:
                    raise _Fallback
                frame = _enc_command_frame(entry[0], command)
            elif type(command) is CommandBatch:
                frame = _enc_batch_frame(self.tables, command)
            else:
                raise _Fallback
        except (_Fallback, struct.error):
            self.fallback_encodes += 1
            return _codec.encode_message(command)
        self.fast_encodes += 1
        return frame

    def encode_reply(self, reply: Any, reply_to: Any = None) -> FrameLike:
        try:
            if type(reply) is Reply and type(reply_to) is Command:
                entry = self.tables.get((reply_to.api, reply_to.function))
                if entry is None:
                    raise _Fallback
                frame = _enc_reply_frame(entry[1], reply)
            elif type(reply) is ReplyBatch and type(reply_to) is CommandBatch:
                frame = _enc_reply_batch_frame(self.tables, reply, reply_to)
            else:
                raise _Fallback
        except (_Fallback, struct.error):
            self.fallback_encodes += 1
            return _codec.encode_message(reply)
        self.fast_encodes += 1
        return frame

    # -- decode -----------------------------------------------------------

    def decode_command(self, data: FrameLike) -> Any:
        buf = frame_bytes(data)
        try:
            magic = buf[0:2]
            if magic == _codec._COMMAND_MAGIC:
                message = _dec_command_frame(self.wire_tables, buf)
            elif magic == _codec._COMMAND_BATCH_MAGIC:
                message = _dec_batch_frame(self.wire_tables, buf)
            else:
                raise _Fallback
        except _DECODE_SURPRISES:
            self.fallback_decodes += 1
            return _codec.decode_message(buf)
        self.fast_decodes += 1
        return message

    def decode_reply(self, data: FrameLike, reply_to: Any = None) -> Any:
        buf = frame_bytes(data)
        try:
            magic = buf[0:2]
            if magic == _codec._REPLY_MAGIC and type(reply_to) is Command:
                entry = self.tables.get((reply_to.api, reply_to.function))
                if entry is None:
                    raise _Fallback
                message = _dec_reply_frame(entry[1], buf)
            elif (magic == _codec._REPLY_BATCH_MAGIC
                  and type(reply_to) is CommandBatch):
                message = _dec_reply_batch_frame(self.tables, buf, reply_to)
            else:
                raise _Fallback
        except _DECODE_SURPRISES:
            self.fallback_decodes += 1
            return _codec.decode_message(buf)
        self.fast_decodes += 1
        return message

    def decode_message(self, data: FrameLike, reply_to: Any = None) -> Any:
        buf = frame_bytes(data)
        magic = buf[0:2] if len(buf) >= 2 else b""
        if magic in (_codec._COMMAND_MAGIC, _codec._COMMAND_BATCH_MAGIC):
            return self.decode_command(buf)
        if magic in (_codec._REPLY_MAGIC, _codec._REPLY_BATCH_MAGIC):
            return self.decode_reply(buf, reply_to=reply_to)
        # NeedBytes and unknown magics: interpreted, always
        return _codec.decode_message(buf)

    def snapshot(self) -> Dict[str, int]:
        return {
            "fast_encodes": self.fast_encodes,
            "fast_decodes": self.fast_decodes,
            "fallback_encodes": self.fallback_encodes,
            "fallback_decodes": self.fallback_decodes,
            "functions": len(self.tables),
        }


# ---------------------------------------------------------------------------
# per-function entry points (wrapped by generated codec modules)
# ---------------------------------------------------------------------------


def encode_command_with(table: CommandTable, command: Command) -> FrameLike:
    """Frame ``command`` with one function's table (fallback-safe)."""
    try:
        return _enc_command_frame(table, command)
    except (_Fallback, struct.error):
        return _codec.encode_message(command)


def decode_command_with(table: CommandTable, data: FrameLike) -> Command:
    buf = frame_bytes(data)
    try:
        return _dec_command_frame(
            {table.api_fn: (table, None)}, buf)
    except _DECODE_SURPRISES:
        return _codec.decode_message(buf)


def encode_reply_with(table: ReplyTable, reply: Reply) -> FrameLike:
    try:
        return _enc_reply_frame(table, reply)
    except (_Fallback, struct.error):
        return _codec.encode_message(reply)


def decode_reply_with(table: ReplyTable, data: FrameLike) -> Reply:
    buf = frame_bytes(data)
    try:
        return _dec_reply_frame(table, buf)
    except _DECODE_SURPRISES:
        return _codec.decode_message(buf)
