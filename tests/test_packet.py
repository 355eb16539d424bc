import hashlib
import random
import struct
import tracemalloc
import zlib
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from qsatnet import packet as pk

HEAD = pk.MAGIC + bytes([pk.VERSION])
FRAMES = st.builds(
    lambda q, ec: pk.encode(pk.Packet(
        1, 2, 3, qubits=tuple(pk.QubitDescriptor(i) for i in range(q)),
        error_corr=ec)),
    st.integers(0, 20), st.binary(max_size=32))
# arbitrary bytes; bytes past the magic and version checks; bytes that also
# pass the flags check; and encoded frames with a span of bytes replaced by
# other bytes (an edit of 0 bytes leaves the frame valid)
DECODE_INPUTS = st.one_of(
    st.binary(max_size=256),
    st.binary(max_size=256).map(lambda b: HEAD + b),
    st.tuples(st.integers(0, 3), st.binary(max_size=256)).map(
        lambda fb: HEAD + bytes([fb[0]]) + fb[1]),
    st.tuples(FRAMES, st.integers(0, 260), st.integers(0, 8),
              st.binary(max_size=8)).map(
        lambda e: e[0][:e[1]] + e[3] + e[0][e[1] + e[2]:]),
)


def random_packet(rng: random.Random, sizes=(0, 0, 1, 2, 5, 40)) -> pk.Packet:
    n_qubits = rng.choice(sizes)
    qubits = tuple(pk.QubitDescriptor(rng.randrange(2**32),
                                      rng.randrange(2**32) if rng.random() < 0.5 else 0,
                                      rng.choice([0, 1]))
                   for _ in range(n_qubits))
    ack = rng.random() < 0.5
    return pk.Packet(
        requesting_station_id=rng.randrange(2**32),
        receiving_station_id=rng.randrange(2**32),
        transmit_time_ns=rng.randrange(2**64),
        op_commence_time_ns=rng.randrange(2**64) if rng.random() < 0.7 else 0,
        qubits=qubits,
        ack_present=ack,
        ack_session_id=rng.randrange(2**32) if ack else 0,
        error_corr=bytes(rng.randrange(256) for _ in range(rng.choice([0, 0, 3, 17]))),
    )


def junk_corpus():
    """2000 blobs of up to 119 random bytes."""
    rng = random.Random(31337)
    for _ in range(2000):
        yield bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))


def mutation_corpus():
    """500 encoded random packets, each with 1 to 5 bits flipped."""
    rng = random.Random(4242)
    for _ in range(500):
        data = bytearray(pk.encode(random_packet(rng)))
        for _ in range(rng.choice([1, 1, 2, 5])):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        yield bytes(data)


def decode_outcome(data: bytes):
    """The decoded packet's dict, or the error's (class name, offset, message)."""
    try:
        return pk.packet_to_dict(pk.decode(data))
    except pk.PacketError as err:
        return (type(err).__name__, err.offset, str(err))


def large_packets():
    """200 random packets with up to 4096 descriptors each."""
    rng = random.Random(7)
    return [random_packet(rng, (0, 1, 2, 5, 40, 300, 4096)) for _ in range(200)]


# values a descriptor field must reject; 2 is a valid id or group but not a
# valid encoding
BAD_VALUES = (True, False, 1.5, None, -1, 2**32, "7", 2)
U32 = st.integers(0, 2**32 - 1)
VALID_DESC = st.fixed_dictionaries(
    {"qubit_id": U32},
    optional={"entanglement_group": U32, "encoding": st.sampled_from((0, 1))})
ANY_VALUE = st.one_of(U32, st.sampled_from(BAD_VALUES))
ANY_DESC = st.fixed_dictionaries(
    {"qubit_id": ANY_VALUE},
    optional={"entanglement_group": ANY_VALUE,
              "encoding": st.one_of(st.sampled_from((0, 1)),
                                    st.sampled_from(BAD_VALUES))})


def encode_outcome(make):
    """The frame of ``encode(make())``, or its error's (class name, message)."""
    try:
        return pk.encode(make())
    except pk.EncodeValidationError as err:
        return (type(err).__name__, str(err))


def dict_and_tuple_outcomes(header: dict, descs: list):
    """encode outcomes of one packet built by ``packet_from_dict`` and built
    by hand from a tuple of ``QubitDescriptor``; header keys are ``Packet``
    field names."""
    qubits = tuple(pk.QubitDescriptor(d["qubit_id"],
                                      d.get("entanglement_group", 0),
                                      d.get("encoding", pk.ENCODING_DV))
                   for d in descs)
    return (encode_outcome(lambda: pk.packet_from_dict({**header,
                                                        "qubits": descs})),
            encode_outcome(lambda: pk.Packet(**header, qubits=qubits)))


def descriptor_corpus():
    """300 headers and descriptor lists with up to 300 descriptors; 31 of
    them hold a bad header or descriptor value."""
    rng = random.Random(1729)
    for _ in range(300):
        bad_rate = rng.choice((0.0, 0.0, 0.001, 0.02))

        def value(good):
            return rng.choice(BAD_VALUES) if rng.random() < bad_rate else good

        descs = []
        for _ in range(rng.choice((0, 1, 2, 5, 40, 300))):
            d = {"qubit_id": value(rng.randrange(2**32))}
            if rng.random() < 0.7:
                d["entanglement_group"] = value(
                    rng.randrange(2**32) if rng.random() < 0.5 else 0)
            if rng.random() < 0.7:
                d["encoding"] = value(rng.choice((0, 1)))
            descs.append(d)
        ack = rng.random() < 0.5
        header = {"requesting_station_id": value(rng.randrange(2**32)),
                  "receiving_station_id": rng.randrange(2**32),
                  "transmit_time_ns": rng.randrange(2**64),
                  "ack_present": ack,
                  "ack_session_id": rng.randrange(2**32) if ack else 0}
        yield header, descs


class TestEncode:
    def test_minimal_packet_hand_assembled(self):
        # assemble the expected frame field by field, independent of encode()
        p = pk.Packet(requesting_station_id=7, receiving_station_id=9,
                      transmit_time_ns=1_000_000_000)
        body = (b"\x51\x50" + b"\x01" + b"\x00"
                + struct.pack(">I", 7) + struct.pack(">I", 9)
                + struct.pack(">Q", 1_000_000_000) + struct.pack(">Q", 0)
                + struct.pack(">H", 0)
                + struct.pack(">I", 0) + struct.pack(">H", 0))
        expected = body + struct.pack(">I", zlib.crc32(body)) + b"\x0e\x0f"
        encoded = pk.encode(p)
        assert encoded == expected
        assert encoded[:4] == b"\x51\x50\x01\x00"
        assert len(encoded) == 42

    def test_length_formula(self):
        qubits = tuple(pk.QubitDescriptor(i) for i in range(2))
        p = pk.Packet(1, 2, 3, qubits=qubits, error_corr=b"abc")
        assert len(pk.encode(p)) == 42 + 9 * 2 + 3
        assert p.encoded_length() == len(pk.encode(p))

    def test_flags_reflect_content(self):
        p = pk.Packet(1, 2, 3)
        assert p.flags == 0x00
        p = pk.Packet(1, 2, 3, qubits=(pk.QubitDescriptor(1),))
        assert p.flags == 0x01
        p = pk.Packet(1, 2, 3, ack_present=True, ack_session_id=5)
        assert p.flags == 0x02

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(pk.EncodeValidationError):
            pk.encode(pk.Packet(2**32, 0, 0))
        with pytest.raises(pk.EncodeValidationError):
            pk.encode(pk.Packet(1, 2, 2**64))
        with pytest.raises(pk.EncodeValidationError):
            pk.encode(pk.Packet(1, 2, 3, ack_session_id=5, ack_present=False))
        with pytest.raises(pk.EncodeValidationError):
            pk.encode(pk.Packet(1, 2, 3, qubits=(pk.QubitDescriptor(1, 0, 7),)))
        with pytest.raises(pk.EncodeValidationError):
            pk.encode(pk.Packet(1, 2, 3, version=2))
        with pytest.raises(pk.EncodeValidationError,
                           match=r"^error_corr too long: 65536 bytes$"):
            pk.encode(pk.Packet(1, 2, 3, error_corr=bytes(65536)))

    @pytest.mark.parametrize("qubits, message", [
        # the first bad descriptor is reported, its fields checked in the
        # order qubit_id, entanglement_group, encoding
        ([(1,), (True, 2, 7), (2**32,)], "qubit_id=True is not an integer "
         "in [0, 4294967295]"),
        ([(1.5, True, 7)], "qubit_id=1.5 is not an integer in [0, 4294967295]"),
        ([(2**32, 1.5)], "qubit_id=4294967296 is not an integer in "
         "[0, 4294967295]"),
        ([(-1,)], "qubit_id=-1 is not an integer in [0, 4294967295]"),
        ([(3, 4), (1, True, 7), (1.5,)], "entanglement_group=True is not an "
         "integer in [0, 4294967295]"),
        ([(1, 1.5, 2)], "entanglement_group=1.5 is not an integer in "
         "[0, 4294967295]"),
        ([(1, 2**32)], "entanglement_group=4294967296 is not an integer in "
         "[0, 4294967295]"),
        ([(1, 0, True), (True,)], "encoding=True not in {0, 1}"),
        ([(1, 0, 1.5)], "encoding=1.5 not in {0, 1}"),
        ([(1, 0, 1.0)], "encoding=1.0 not in {0, 1}"),
        ([(1,), (2, 3, 1), (4, 0, 2), (2**32,)], "encoding=2 not in {0, 1}"),
        ([(1, 0, -1), (5, -1)], "encoding=-1 not in {0, 1}"),
        ([(i, i) for i in range(300)] + [(None,)], "qubit_id=None is not an "
         "integer in [0, 4294967295]"),
    ])
    def test_first_bad_descriptor_is_reported(self, qubits, message):
        p = pk.Packet(1, 2, 3, qubits=tuple(pk.QubitDescriptor(*q) for q in qubits))
        with pytest.raises(pk.EncodeValidationError) as err:
            pk.encode(p)
        assert str(err.value) == message

    @pytest.mark.parametrize("qubits, error, message", [
        # hand-built descriptors that are not triples fail as unpacking them
        # in order fails; none is dropped or truncated
        (((1, 2),), ValueError, "not enough values to unpack (expected 3, got 2)"),
        (((1, 2, 0), (3, 4, 0, 1)), ValueError,
         "too many values to unpack (expected 3)"),
        (((1, 2, 0), 5), TypeError, "cannot unpack non-iterable int object"),
        (((True, 0, 0), (1, 2)), pk.EncodeValidationError,
         "qubit_id=True is not an integer in [0, 4294967295]"),
    ])
    def test_malformed_descriptor_tuple(self, qubits, error, message):
        with pytest.raises(error) as err:
            pk.encode(pk.Packet(1, 2, 3, qubits=qubits))
        assert type(err.value) is error and str(err.value) == message

    def test_frames_pinned(self):
        sha = hashlib.sha256()
        for p in large_packets():
            sha.update(pk.encode(p))
        assert sha.hexdigest() == ("dbd9da7d76246d16feb60be4c68b4487"
                                   "fda6b56e690eaccfd61e8cabdec578ca")

    def test_u64_timestamps_beyond_u32(self):
        # nanosecond clocks pass 2**32 after ~4.3 simulated seconds
        p = pk.Packet(1, 2, transmit_time_ns=10**12, op_commence_time_ns=2**40)
        assert pk.decode(pk.encode(p)) == p


class TestDecode:
    def test_round_trip_randomized(self):
        rng = random.Random(2024)
        for _ in range(1000):
            p = random_packet(rng)
            assert pk.decode(pk.encode(p)) == p

    def test_reencode_is_identity_on_canonical_bytes(self):
        rng = random.Random(55)
        for _ in range(100):
            data = pk.encode(random_packet(rng))
            assert pk.encode(pk.decode(data)) == data

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_input_decodes_like_bytes(self, wrap):
        # a bytearray once left a bytearray error_corr in a frozen, so
        # unhashable, packet; a memoryview once raised AttributeError
        rng = random.Random(77)
        for _ in range(50):
            data = pk.encode(random_packet(rng))
            p = pk.decode(wrap(bytearray(data)))
            assert p == pk.decode(data)
            assert hash(p) == hash(pk.decode(data))
            assert type(p.error_corr) is bytes

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_junk_fails_like_bytes(self, wrap):
        for blob in (*junk_corpus(), *mutation_corpus()):
            assert decode_outcome(wrap(bytearray(blob))) == \
                decode_outcome(blob)

    def test_non_bytes_like_input_is_a_type_error(self):
        # an int is not a frame size to allocate
        with pytest.raises(TypeError):
            pk.decode(2**40)

    def test_bad_magic(self):
        with pytest.raises(pk.BadMagic) as err:
            pk.decode(b"\x00\x00" + b"\x00" * 40)
        assert err.value.offset == 0

    def test_bad_version(self):
        data = bytearray(pk.encode(pk.Packet(1, 2, 3)))
        data[2] = 9
        with pytest.raises(pk.BadVersion) as err:
            pk.decode(bytes(data))
        assert err.value.offset == 2

    def test_reserved_flag_bits(self):
        data = bytearray(pk.encode(pk.Packet(1, 2, 3)))
        data[3] |= 0x80
        with pytest.raises(pk.ReservedFlagSet) as err:
            pk.decode(bytes(data))
        assert err.value.offset == 3

    def test_crc_mismatch_on_payload_flip(self):
        p = pk.Packet(1, 2, 3, qubits=(pk.QubitDescriptor(10, 4),),
                      error_corr=b"\xaa\xbb")
        data = bytearray(pk.encode(p))
        data[-7] ^= 0xFF   # inside error_corr bytes
        with pytest.raises(pk.CrcMismatch):
            pk.decode(bytes(data))

    def test_bad_end_marker(self):
        data = bytearray(pk.encode(pk.Packet(1, 2, 3)))
        data[-1] = 0x00
        with pytest.raises(pk.BadEndMarker):
            pk.decode(bytes(data))

    def test_flag_payload_mismatch(self):
        # flip bit0 on a qubit-free packet and fix the crc so only the
        # cross-field check can catch it
        data = bytearray(pk.encode(pk.Packet(1, 2, 3)))
        data[3] |= 0x01
        body = bytes(data[:-6])
        data[-6:-2] = struct.pack(">I", zlib.crc32(body))
        with pytest.raises(pk.FieldMismatch):
            pk.decode(bytes(data))

    def test_trailing_bytes_rejected(self):
        data = pk.encode(pk.Packet(1, 2, 3)) + b"\x00"
        with pytest.raises(pk.TrailingBytes):
            pk.decode(data)

    def test_truncation_fuzz_every_prefix(self):
        p = pk.Packet(1, 2, 3, qubits=tuple(pk.QubitDescriptor(i) for i in range(4)),
                      ack_present=True, ack_session_id=9, error_corr=b"ec" * 8)
        data = pk.encode(p)
        for cut in range(len(data)):
            with pytest.raises(pk.PacketError) as err:
                pk.decode(data[:cut])
            assert isinstance(err.value.offset, int)

    def test_arbitrary_junk_never_crashes(self):
        for blob in junk_corpus():
            try:
                pk.decode(blob)
            except pk.PacketError:
                pass

    @settings(max_examples=1000)
    @given(DECODE_INPUTS)
    def test_decode_is_total(self, data):
        try:
            assert isinstance(pk.decode(data), pk.Packet)
        except pk.PacketError as err:
            assert type(err) is not pk.PacketError
            assert 0 <= err.offset <= len(data)

    def test_random_mutations_report_structured_errors(self):
        clean = 0
        for data in mutation_corpus():
            try:
                pk.decode(data)
                clean += 1          # mutation cancelled itself out
            except pk.PacketError as err:
                assert isinstance(err.offset, int)
        assert clean < 10

    def test_outcomes_pinned(self):
        # decoded dicts, and the class, offset and message of every error,
        # over the junk and mutation corpora
        sha = hashlib.sha256()
        for data in (*junk_corpus(), *mutation_corpus()):
            sha.update(repr(decode_outcome(data)).encode())
        assert sha.hexdigest() == ("c0753f2ebdfcc98f7731e6535d6676d1"
                                   "bb9e2e2e165862acab1858ae0c3078ca")


class TestDescriptor:
    def test_immutable(self):
        q = pk.QubitDescriptor(5, 9, 1)
        with pytest.raises(AttributeError):
            q.qubit_id = 6
        assert q == pk.QubitDescriptor(5, 9, 1)
        assert hash(q) == hash(pk.QubitDescriptor(5, 9, 1))

    def test_defaults(self):
        assert pk.QubitDescriptor(5) == pk.QubitDescriptor(5, 0, pk.ENCODING_DV)


class TestDescriptorsView:
    QUBITS = tuple(pk.QubitDescriptor(q, g, e) for q, g, e in (
        (4000000000, 0, 0), (7, 4294967295, 1), (0, 12, 0), (3, 12, 1),
        (2**31, 2**31, 0)))

    def view(self, qubits=QUBITS):
        return pk.decode(pk.encode(pk.Packet(1, 2, 3, qubits=qubits))).qubits

    def test_is_a_read_only_sequence(self):
        view = self.view()
        assert type(view) is pk.Descriptors
        assert isinstance(view, Sequence)
        with pytest.raises(TypeError):
            view[0] = pk.QubitDescriptor(1)

    def test_len_and_iteration(self):
        view = self.view()
        assert len(view) == 5
        assert list(view) == list(self.QUBITS)
        assert {type(q) for q in view} == {pk.QubitDescriptor}
        assert self.QUBITS[3] in view

    @pytest.mark.parametrize("k", [0, 1, 4, -1, -5])
    def test_int_indexing(self, k):
        q = self.view()[k]
        assert type(q) is pk.QubitDescriptor
        assert q == self.QUBITS[k]
        assert q.entanglement_group == self.QUBITS[k].entanglement_group

    @pytest.mark.parametrize("k", [5, -6, 2**70])
    def test_index_out_of_range(self, k):
        with pytest.raises(IndexError):
            self.view()[k]

    def test_non_integer_index(self):
        with pytest.raises(TypeError):
            self.view()[1.0]

    @pytest.mark.parametrize("k", [slice(1, 3), slice(None, None, -2),
                                   slice(10, None), slice(-2, None)])
    def test_slicing_returns_a_tuple(self, k):
        assert self.view()[k] == self.QUBITS[k]
        assert type(self.view()[k]) is tuple

    def test_bool(self):
        assert self.view()
        assert not self.view(())
        assert len(self.view(())) == 0

    def test_equal_to_the_same_tuple(self):
        view = self.view()
        assert view == self.QUBITS and self.QUBITS == view
        assert hash(view) == hash(self.QUBITS)
        assert view == self.view()
        assert self.view(()) == () and hash(self.view(())) == hash(())

    @pytest.mark.parametrize("other", [
        QUBITS[:-1],
        QUBITS[:-1] + (pk.QubitDescriptor(2**31, 2**31, 1),),
        QUBITS[::-1],
        list(QUBITS),
    ])
    def test_not_equal_to_a_different_sequence(self, other):
        view = self.view()
        assert view != other and other != view
        if isinstance(other, tuple):
            assert view != self.view(other)

    def test_repr(self):
        assert repr(self.view()) == repr(self.QUBITS)

    def test_packets_equal_both_ways(self):
        by_hand = pk.Packet(1, 2, 3, qubits=self.QUBITS, error_corr=b"x")
        decoded = pk.decode(pk.encode(by_hand))
        by_dict = pk.packet_from_dict(pk.packet_to_dict(by_hand))
        for p in (decoded, by_dict):
            assert p == by_hand and by_hand == p
            assert hash(p) == hash(by_hand)
            assert pk.encode(p) == pk.encode(by_hand)
        assert repr(decoded) == repr(by_hand)

    def test_decode_peak_memory_is_about_the_frame(self):
        # the descriptors stay one block: no object per descriptor
        rng = random.Random(12)
        frame = pk.encode(pk.Packet(1, 2, 3, qubits=tuple(
            pk.QubitDescriptor(rng.randrange(2**32), rng.randrange(2**32),
                               rng.randrange(2)) for _ in range(4096))))
        tracemalloc.start()
        try:
            p = pk.decode(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(p.qubits) == 4096
        assert peak < 2 * len(frame)

    def test_encode_peak_memory_is_about_the_frame(self):
        # the frame is joined once from its parts, never copied again
        rng = random.Random(13)
        frame = pk.encode(pk.Packet(1, 2, 3, qubits=tuple(
            pk.QubitDescriptor(rng.randrange(2**32), rng.randrange(2**32),
                               rng.randrange(2)) for _ in range(4096)),
            error_corr=bytes(64)))
        p = pk.decode(frame)
        tracemalloc.start()
        try:
            again = pk.encode(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == frame
        assert peak <= 2.0 * len(frame)


class TestCrc32:
    def test_empty_input(self):
        assert pk.crc32(b"") == 0x00000000

    def test_published_check_word(self):
        assert pk.crc32(b"123456789") == 0xCBF43926

    def test_order_sensitivity(self):
        assert pk.crc32(b"\x00\x01") != pk.crc32(b"\x01\x00")

    @pytest.mark.parametrize("cut", [0, 1, 4, 9])
    def test_running_value_continues_the_crc(self, cut):
        data = b"123456789"
        assert pk.crc32(data[cut:], pk.crc32(data[:cut])) == 0xCBF43926


class TestDictPath:
    HEADER = {"requesting_station_id": 1, "receiving_station_id": 2,
              "transmit_time_ns": 3}

    def test_missing_id_before_later_non_object(self):
        with pytest.raises(KeyError) as err:
            pk.packet_from_dict({**self.HEADER, "qubits": [{}, 5]})
        assert err.value.args == ("qubit_id",)

    def test_non_object_before_later_missing_id(self):
        with pytest.raises(TypeError) as err:
            pk.packet_from_dict({**self.HEADER, "qubits": [5, {}]})
        assert str(err.value) == "qubits[0] must be an object, got int"

    @pytest.mark.parametrize("encoding", [0, 7])
    def test_too_many_qubits(self, encoding):
        # the count is checked before any descriptor value
        spec = {**self.HEADER,
                "qubits": [{"qubit_id": 1, "encoding": encoding}] * 65536}
        p = pk.packet_from_dict(spec)
        with pytest.raises(pk.EncodeValidationError) as err:
            pk.encode(p)
        assert str(err.value) == "too many qubits: 65536"

    @settings(max_examples=500)
    @given(st.one_of(st.lists(VALID_DESC, max_size=12),
                     st.lists(ANY_DESC, max_size=12)),
           st.one_of(U32, st.sampled_from(BAD_VALUES)))
    def test_dict_and_tuple_encode_alike(self, descs, requesting_station_id):
        header = {**self.HEADER, "requesting_station_id": requesting_station_id}
        by_dict, by_tuple = dict_and_tuple_outcomes(header, descs)
        assert by_dict == by_tuple

    def test_outcomes_pinned(self):
        # frames, or the class and message of every error, of the corpus
        sha = hashlib.sha256()
        kinds = set()
        for header, descs in descriptor_corpus():
            by_dict, by_tuple = dict_and_tuple_outcomes(header, descs)
            assert by_dict == by_tuple
            kinds.add(type(by_dict))
            sha.update(repr(by_dict).encode())
        assert kinds == {bytes, tuple}
        assert sha.hexdigest() == ("2c4df8a895f17261017599aefca2bb07"
                                   "14f07cdf83c5b3e0402893ca0f845c2c")


class TestDictRoundTrip:
    def test_dict_round_trip(self):
        rng = random.Random(8)
        for _ in range(50):
            p = random_packet(rng)
            assert pk.packet_from_dict(pk.packet_to_dict(p)) == p
