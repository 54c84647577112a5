"""Property-based tests: core data structures behave like their models."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.kv.bloom import BloomFilter
from repro.storage.kv.memtable import TOMBSTONE, VALUE, MemTable
from repro.storage.kv.db import WriteBatch

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=48)

_settings = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestBloomModel:
    @given(st.lists(keys, min_size=1, max_size=200, unique=True))
    @_settings
    def test_never_false_negative(self, key_list):
        bloom = BloomFilter.for_keys(key_list)
        assert all(bloom.may_contain(k) for k in key_list)

    @given(st.lists(keys, min_size=1, max_size=100, unique=True))
    @_settings
    def test_serialization_preserves_answers(self, key_list):
        bloom = BloomFilter.for_keys(key_list)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        probes = key_list + [k + b"\x00" for k in key_list]
        assert [bloom.may_contain(p) for p in probes] == [
            clone.may_contain(p) for p in probes
        ]


class TestMemTableModel:
    """The memtable against a plain list of (key, sequence) -> entry."""

    @staticmethod
    def _model_get(model, key, snapshot):
        visible = [
            (seq, kind, value)
            for (k, seq), (kind, value) in model.items()
            if k == key and (snapshot is None or seq <= snapshot)
        ]
        if not visible:
            return None
        _, kind, value = max(visible)
        return kind, value

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([b"", b"\x00", b"\x00\x00", b"\x00\x01", b"a", b"a\x00"])
                | keys,
                st.integers(0, 40),
                st.sampled_from([VALUE, TOMBSTONE]),
                values,
            ),
            max_size=80,
        ),
        snapshots=st.lists(st.integers(0, 45), max_size=6),
    )
    @_settings
    def test_matches_reference_model(self, ops, snapshots):
        table = MemTable()
        model = {}
        size_bytes = 0
        for key, sequence, kind, value in ops:
            table.add(sequence, kind, key, value)
            model[(key, sequence)] = (kind, value)
            size_bytes += len(key) + len(value) + 16
        assert len(table) == len(model)
        assert table.entries == len(ops)
        assert table.approximate_bytes == size_bytes
        expected_order = sorted(model, key=lambda ks: (ks[0], -ks[1]))
        assert [(k, seq) for k, seq, _, _ in table.iterate()] == expected_order
        assert [(kind, value) for _, _, kind, value in table.iterate()] == [
            model[ks] for ks in expected_order
        ]
        probes = {key for key, _, _, _ in ops} | {b"absent", b"\x00\x02"}
        for key in probes:
            assert table.get(key) == self._model_get(model, key, None)
            for snapshot in snapshots:
                assert table.get(key, snapshot) == self._model_get(model, key, snapshot)
    @given(st.lists(st.tuples(keys, values), min_size=1, max_size=80))
    @_settings
    def test_latest_write_wins(self, ops):
        table = MemTable()
        model = {}
        for sequence, (key, value) in enumerate(ops, start=1):
            table.add(sequence, VALUE, key, value)
            model[key] = value
        for key, value in model.items():
            assert table.get(key) == (VALUE, value)

    @given(st.lists(st.tuples(keys, values), min_size=2, max_size=50))
    @_settings
    def test_snapshot_isolation(self, ops):
        table = MemTable()
        half = len(ops) // 2
        model_at_snapshot = {}
        for sequence, (key, value) in enumerate(ops, start=1):
            table.add(sequence, VALUE, key, value)
            if sequence <= half:
                model_at_snapshot[key] = value
        for key, value in model_at_snapshot.items():
            found = table.get(key, snapshot=half)
            assert found == (VALUE, value)


class TestWriteBatchModel:
    @given(
        st.lists(
            st.tuples(st.booleans(), keys, values),
            max_size=40,
        )
    )
    @_settings
    def test_encode_decode_roundtrip(self, ops):
        batch = WriteBatch()
        for is_delete, key, value in ops:
            if is_delete:
                batch.delete(key)
            else:
                batch.put(key, value)
        assert WriteBatch.decode(batch.encode()).ops == batch.ops
