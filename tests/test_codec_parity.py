"""Byte-identity fuzz: specialized codec vs interpreted codec.

The marshaling fast path's contract is *frame-for-frame wire
equality*: for every message the :class:`SpecializedCodec` encodes —
on the generated tables or through its fallback — the emitted bytes
equal the interpreted encoder's exactly, and every frame decodes to
the same message under both codecs.  This suite drives that contract
with Hypothesis over the real generated layouts of three shipped APIs
(opencl, mvnc, qat), then replays the trust-boundary hardening checks
(systematic truncation, single-byte corruption) against both codecs
in lockstep: a malformation must produce the *same* outcome —
:class:`CodecError` or an identical message — from each.
"""

from __future__ import annotations

import struct

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.remoting.codec import (
    _COMMAND_MAGIC,
    _REPLY_MAGIC,
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
    decode_value,
    encode_value,
)
from repro.remoting.speccodec import SpecializedCodec
from repro.remoting.wire import InterpretedCodec, frame_bytes
from repro.stack import build_stack

APIS = ("opencl", "mvnc", "qat")

LAYOUTS = {api: build_stack(api).codec_module.LAYOUT for api in APIS}
FUNCTIONS = sorted(
    (api, fn) for api in APIS for fn in LAYOUTS[api]
)

INTERP = InterpretedCodec()


def _specialized() -> SpecializedCodec:
    codec = SpecializedCodec()
    for api in APIS:
        codec.register_module(build_stack(api).codec_module)
    return codec


SPEC = _specialized()


# ---------------------------------------------------------------------------
# strategies: messages drawn from the real generated layouts
# ---------------------------------------------------------------------------

def _scalar_value(kind: str) -> st.SearchStrategy:
    if kind == "int":
        return st.integers(-(2 ** 63), 2 ** 63 - 1)
    if kind == "float":
        return st.floats(allow_nan=False)
    if kind == "str":
        return st.text(max_size=24)
    if kind == "ints":
        return st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), max_size=4)
    if kind == "num":
        return st.one_of(st.integers(-(2 ** 53), 2  ** 53),
                         st.floats(allow_nan=False))
    raise AssertionError(kind)


#: ids no tracer stamps: off the layout, rejected on decode by both
OFF_LAYOUT_IDS = st.one_of(st.booleans(), st.floats(allow_nan=False))
#: span ids as a tracer stamps them, absent, or off-layout
SPAN_IDS = st.one_of(st.none(), st.integers(-(2 ** 63), 2 ** 63 - 1),
                     OFF_LAYOUT_IDS)
#: trace ids likewise: any text, absent, or not a str at all
TRACE_IDS = st.one_of(st.none(), st.text(max_size=12), st.integers(),
                      OFF_LAYOUT_IDS)


def _bad_trace(messages) -> bool:
    """Whether any message carries trace context decode must reject."""
    for message in messages:
        trace_id = getattr(message, "trace_id", None)
        span_id = message.span_id
        if not (trace_id is None or type(trace_id) is str):
            return True
        if not (span_id is None or type(span_id) is int):
            return True
    return False


@st.composite
def layout_commands(draw) -> Command:
    """A Command for a real function, usually layout-conformant.

    ``None`` values, omitted parameters, and trace context (a tracer
    stamps every frame; some draws carry ids of the wrong type) are
    mixed in deliberately: some draws ride the fast path, some fall
    back, and byte identity must hold either way.
    """
    api, fn = draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    scalars = draw(st.fixed_dictionaries({}, optional={
        name: st.one_of(_scalar_value(kind), st.none())
        for name, kind in lay["scalars"].items()
    }))
    handles = draw(st.fixed_dictionaries({}, optional={
        name: st.one_of(_scalar_value(kind), st.none())
        for name, kind in lay["handles"].items()
    }))
    in_buffers = draw(st.fixed_dictionaries({}, optional={
        # sizes straddle the vectored-send splice threshold (512)
        name: st.binary(max_size=600) for name in lay["inbufs"]
    }))
    out_sizes = draw(st.fixed_dictionaries({}, optional={
        name: st.integers(0, 1 << 20) for name in lay["outsz"]
    }))
    return Command(
        seq=draw(st.integers(0, 2 ** 31)),
        vm_id=draw(st.sampled_from(("vm-0", "vm-fuzz", ""))),
        api=api,
        function=fn,
        mode=draw(st.sampled_from(("sync", "async"))),
        scalars=scalars,
        handles=handles,
        in_buffers=in_buffers,
        out_sizes=out_sizes,
        issue_time=draw(st.floats(0, 1e6)),
        trace_id=draw(TRACE_IDS),
        span_id=draw(SPAN_IDS),
    )


@st.composite
def layout_replies(draw):
    """A (Reply, reply_to Command) pair for a real function."""
    api, fn = draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    if lay["ret"] == "scalar":
        ret = draw(st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                             st.floats(allow_nan=False)))
    else:
        ret = None
    new_names = list(lay["new"])
    if lay["ret"] == "handle":
        new_names.append("__ret__")
    reply = Reply(
        seq=draw(st.integers(0, 2 ** 31)),
        return_value=ret,
        out_payloads=draw(st.fixed_dictionaries({}, optional={
            name: st.binary(max_size=600) for name in lay["outs"]
        })),
        out_scalars=draw(st.fixed_dictionaries({}, optional={
            name: st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                            st.floats(allow_nan=False), st.text(max_size=8))
            for name in lay["oscal"]
        })),
        new_handles=draw(st.fixed_dictionaries({}, optional={
            name: st.one_of(
                st.integers(0, 2 ** 48),
                st.lists(st.integers(0, 2 ** 48), max_size=3),
            )
            for name in new_names
        })),
        callbacks=draw(st.sampled_from(([], [[1, [2, 3]]]))),
        error=draw(st.one_of(st.none(), st.just("boom"))),
        complete_time=draw(st.floats(0, 1e6)),
        span_id=draw(SPAN_IDS),
    )
    return reply, Command(seq=reply.seq, vm_id="vm-0", api=api, function=fn)


# ---------------------------------------------------------------------------
# byte identity, fuzz-verified
# ---------------------------------------------------------------------------

class TestByteIdentity:

    @settings(max_examples=120, deadline=None)
    @given(layout_commands())
    def test_command_frames_identical(self, command):
        fast = frame_bytes(SPEC.encode_command(command))
        slow = frame_bytes(INTERP.encode_command(command))
        assert fast == slow
        decoded = _outcome(SPEC.decode_command, fast)
        assert decoded == _outcome(INTERP.decode_command, slow)
        assert (decoded is CodecError) == _bad_trace([command])

    @settings(max_examples=120, deadline=None)
    @given(layout_replies())
    def test_reply_frames_identical(self, pair):
        reply, command = pair
        fast = frame_bytes(SPEC.encode_reply(reply, reply_to=command))
        slow = frame_bytes(INTERP.encode_reply(reply, reply_to=command))
        assert fast == slow
        decoded = _outcome(SPEC.decode_reply, fast, reply_to=command)
        assert decoded == _outcome(INTERP.decode_reply, slow,
                                   reply_to=command)
        assert (decoded is CodecError) == _bad_trace([reply])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_commands(), min_size=1, max_size=3),
           st.floats(0, 1e6))
    def test_batch_frames_identical(self, commands, flush_time):
        # (an empty batch is unencodable by contract: both decoders
        # reject "batch carries no commands")
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        fast = frame_bytes(SPEC.encode_command(batch))
        slow = frame_bytes(INTERP.encode_command(batch))
        assert fast == slow
        decoded = _outcome(SPEC.decode_command, fast)
        assert decoded == _outcome(INTERP.decode_command, slow)
        assert (decoded is CodecError) == _bad_trace(commands)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_replies(), min_size=0, max_size=3),
           st.floats(0, 1e6))
    def test_reply_batch_frames_identical(self, pairs, complete_time):
        replies = [reply for reply, _ in pairs]
        reply_to = CommandBatch(
            vm_id="vm-0", commands=[cmd for _, cmd in pairs])
        batch = ReplyBatch(replies=replies, complete_time=complete_time)
        fast = frame_bytes(SPEC.encode_reply(batch, reply_to=reply_to))
        slow = frame_bytes(INTERP.encode_reply(batch, reply_to=reply_to))
        assert fast == slow
        decoded = _outcome(SPEC.decode_reply, fast, reply_to=reply_to)
        assert decoded == _outcome(INTERP.decode_reply, slow,
                                   reply_to=reply_to)
        assert (decoded is CodecError) == _bad_trace(replies)

    def test_need_bytes_identical(self):
        message = NeedBytes(seq=7, missing=[[7, "src", b"\x01" * 16]],
                            complete_time=0.5)
        fast = frame_bytes(SPEC.encode_reply(message))
        slow = frame_bytes(INTERP.encode_reply(message))
        assert fast == slow
        assert SPEC.decode_reply(fast) == INTERP.decode_reply(slow)


# ---------------------------------------------------------------------------
# the fast path actually runs (identity alone could be all-fallback)
# ---------------------------------------------------------------------------

class TestFastPathEngaged:

    def _conformant(self):
        return Command(
            seq=11, vm_id="vm-0", api="mvnc",
            function="mvncAllocateGraph", mode="sync",
            scalars={"graph_file_length": 4096},
            handles={"device_handle": 3},
            in_buffers={"graph_file": bytes(range(256)) * 16},
            out_sizes={"graph_handle": 8},
            issue_time=2.5,
        )

    def test_conformant_command_is_fast(self):
        codec = _specialized()
        wire = codec.encode_command(self._conformant())
        decoded = codec.decode_command(wire)
        snap = codec.snapshot()
        assert snap["fast_encodes"] == 1
        assert snap["fast_decodes"] == 1
        assert snap["fallback_encodes"] == 0
        assert snap["fallback_decodes"] == 0
        assert decoded == self._conformant()

    def test_conformant_reply_is_fast(self):
        codec = _specialized()
        reply = Reply(seq=11, return_value=0,
                      new_handles={"graph_handle": 9}, complete_time=3.0)
        wire = codec.encode_reply(reply, reply_to=self._conformant())
        decoded = codec.decode_reply(wire, reply_to=self._conformant())
        snap = codec.snapshot()
        assert snap["fast_encodes"] == 1
        assert snap["fast_decodes"] == 1
        assert snap["fallback_encodes"] == 0
        assert decoded == reply

    def test_traced_messages_are_fast(self):
        codec = _specialized()
        command = self._conformant()
        command.trace_id, command.span_id = "cava", 41
        reply = Reply(seq=11, return_value=0,
                      new_handles={"graph_handle": 9}, complete_time=3.0,
                      span_id=42)
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(wire) == command
        rwire = frame_bytes(codec.encode_reply(reply, reply_to=command))
        assert rwire == frame_bytes(INTERP.encode_reply(reply,
                                                        reply_to=command))
        assert codec.decode_reply(rwire, reply_to=command) == reply
        snap = codec.snapshot()
        assert snap["fast_encodes"] == snap["fast_decodes"] == 2
        assert snap["fallback_encodes"] == snap["fallback_decodes"] == 0

    def test_deviating_command_falls_back_identically(self):
        codec = _specialized()
        command = self._conformant()
        command.cached_refs = {"graph_file": [b"\x02" * 16, 4096, "buf"]}
        command.in_buffers = {}
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.snapshot()["fallback_encodes"] == 1
        assert codec.decode_command(wire) == command

    def test_large_payload_is_spliced_zero_copy(self):
        codec = _specialized()
        command = self._conformant()
        frame = codec.encode_command(command)
        # the 4 KiB graph_file payload rides the frame as a view over
        # the caller's bytes, not a copy into the header allocation
        payload = command.in_buffers["graph_file"]
        segments = getattr(frame, "segments", None)
        assert segments is not None
        assert any(
            seg is payload
            or (isinstance(seg, memoryview) and seg.obj is payload)
            for seg in segments
        )


# ---------------------------------------------------------------------------
# trust-boundary hardening parity
# ---------------------------------------------------------------------------

def _outcome(decode, *args, **kwargs):
    try:
        return decode(*args, **kwargs)
    except CodecError:
        return CodecError


def _both_decode_command(data):
    return (_outcome(SPEC.decode_command, data),
            _outcome(INTERP.decode_command, data))


def _both_decode_reply(data, reply_to):
    return (_outcome(SPEC.decode_reply, data, reply_to=reply_to),
            _outcome(INTERP.decode_reply, data, reply_to=reply_to))


def _hostile_frames():
    """One conformant command frame per API, untraced and traced."""
    for api in APIS:
        fn = sorted(LAYOUTS[api])[0]
        lay = LAYOUTS[api][fn]
        for trace_id, span_id in ((None, None), ("tr-h", 17)):
            yield frame_bytes(INTERP.encode_command(Command(
                seq=3, vm_id="vm-h", api=api, function=fn, mode="async",
                scalars={name: 7 for name in lay["scalars"]},
                handles={name: 9 for name in lay["handles"]},
                in_buffers={name: bytes(range(48))
                            for name in lay["inbufs"]},
                out_sizes={name: 64 for name in lay["outsz"]},
                issue_time=1.25, trace_id=trace_id, span_id=span_id,
            )))


def _traced_reply_frames():
    """(frame, reply_to) for a traced conformant reply per API."""
    for api in APIS:
        fn = sorted(LAYOUTS[api])[0]
        lay = LAYOUTS[api][fn]
        new_names = list(lay["new"])
        if lay["ret"] == "handle":
            new_names.append("__ret__")
        reply_to = Command(seq=3, vm_id="vm-h", api=api, function=fn)
        reply = Reply(
            seq=3, return_value=0 if lay["ret"] == "scalar" else None,
            out_payloads={name: bytes(range(24)) for name in lay["outs"]},
            out_scalars={name: 5 for name in lay["oscal"]},
            new_handles={name: 0x2000 for name in new_names},
            complete_time=2.5, span_id=23,
        )
        yield frame_bytes(INTERP.encode_reply(reply, reply_to)), reply_to


def _reframe(magic, wire_dict):
    body = encode_value(wire_dict)
    return magic + struct.pack(">I", len(body)) + body


class TestHardeningParity:

    def test_systematic_truncation_parity(self):
        for wire in _hostile_frames():
            for cut in range(len(wire)):
                fast, slow = _both_decode_command(wire[:cut])
                assert fast is CodecError
                assert slow is CodecError

    def test_single_byte_corruption_parity(self):
        for wire in _hostile_frames():
            for index in range(len(wire)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(wire)
                    mutated[index] ^= flip
                    fast, slow = _both_decode_command(bytes(mutated))
                    assert fast == slow or (fast is CodecError
                                            and slow is CodecError)

    def test_traced_reply_truncation_and_corruption_parity(self):
        for wire, reply_to in _traced_reply_frames():
            for cut in range(len(wire)):
                fast, slow = _both_decode_reply(wire[:cut], reply_to)
                assert fast is CodecError
                assert slow is CodecError
            for index in range(len(wire)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(wire)
                    mutated[index] ^= flip
                    fast, slow = _both_decode_reply(bytes(mutated),
                                                    reply_to)
                    assert fast == slow or (fast is CodecError
                                            and slow is CodecError)

    def test_malformed_command_trace_context_rejected(self):
        # the ids parent host spans: anything but [str|None, int|None]
        # is a CodecError on both codecs, never a decoded command
        base = next(iter(_hostile_frames()))
        wire_dict = decode_value(base[6:])
        for hostile in ({"a": 1}, True, 1.5, [1, 2], ["t", True],
                        ["t", 2.5], ["t", "x"], [b"t", 1], [None, [1]],
                        ["t", 1, 2]):
            wire_dict["tr"] = hostile
            fast, slow = _both_decode_command(
                _reframe(_COMMAND_MAGIC, wire_dict))
            assert fast is CodecError, hostile
            assert slow is CodecError, hostile
        for accepted in (["t", None], [None, 5], [None, None]):
            wire_dict["tr"] = accepted
            fast, slow = _both_decode_command(
                _reframe(_COMMAND_MAGIC, wire_dict))
            assert fast == slow
            assert [fast.trace_id, fast.span_id] == accepted

    def test_malformed_reply_span_id_rejected(self):
        wire, reply_to = next(iter(_traced_reply_frames()))
        wire_dict = decode_value(wire[6:])
        for hostile in ("x", True, 1.5, [1], {"a": 1}, b"\x01"):
            wire_dict["tr"] = hostile
            fast, slow = _both_decode_reply(
                _reframe(_REPLY_MAGIC, wire_dict), reply_to)
            assert fast is CodecError, hostile
            assert slow is CodecError, hostile
        wire_dict["tr"] = None
        fast, slow = _both_decode_reply(
            _reframe(_REPLY_MAGIC, wire_dict), reply_to)
        assert fast == slow
        assert fast.span_id is None

    def test_decode_bomb_parity(self):
        # a u32 length field promising far more data than the frame
        # holds must bounce off both codecs, not allocate
        wire = bytearray(next(iter(_hostile_frames())))
        index = wire.find(b"seq")
        wire[index - 4:index] = b"\xff\xff\xff\xff"
        fast, slow = _both_decode_command(bytes(wire))
        assert fast is CodecError
        assert slow is CodecError
