import builtins
import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftgauge import (
    EmbeddingSet,
    load_embedding_set,
    load_meta_set,
    load_model,
    moments,
    save_embedding_set,
    subsample,
)
from driftgauge.errors import (
    BadMagic,
    DriftGaugeError,
    MissingFile,
    NonFiniteValue,
    SizeExceedsPopulation,
    TruncatedPayload,
)

# The ``.fsemb`` header: magic, version, count, dim, dtype code.
HEADER = struct.Struct("<8sIQIB")
MAGIC = b"FSEMB\x00\x00\x00"


def make_set(rows):
    return EmbeddingSet(data=np.asarray(rows, dtype=np.float32))


class TestEmbeddingSet:
    def test_requires_at_least_one_row_and_column(self):
        with pytest.raises(ValueError):
            EmbeddingSet(data=np.zeros((0, 3), dtype=np.float32))

    def test_rejects_nan_with_location(self):
        data = np.ones((2, 3), dtype=np.float32)
        data[0, 1] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            EmbeddingSet(data=data)
        assert (err.value.row, err.value.col) == (0, 1)

    def test_rejects_inf(self):
        data = np.ones((2, 2), dtype=np.float32)
        data[1, 0] = np.inf
        with pytest.raises(NonFiniteValue):
            EmbeddingSet(data=data)

    def test_the_array_is_the_whole_set(self):
        assert [f.name for f in dataclasses.fields(EmbeddingSet)] == ["data"]

    def test_data_is_read_only(self):
        es = make_set([[1.0, 2.0]])
        with pytest.raises(ValueError):
            es.data[0, 0] = 9.0

    @pytest.mark.parametrize("value", [3e38, -3e38])
    def test_accepts_values_near_the_float32_limit(self, value):
        # The sum of the two extremes would overflow; each alone is finite.
        data = np.full((2, 3), value, dtype=np.float32)
        data[1, 2] = -value
        es = EmbeddingSet(data=data)
        assert es.data.min() == np.float32(-3e38) and es.data.max() == np.float32(3e38)

    def test_nan_beside_near_limit_values_reported_at_its_cell(self):
        data = np.full((3, 4), 3e38, dtype=np.float32)
        data[0, 0] = -3e38
        data[2, 1] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            EmbeddingSet(data=data)
        assert (err.value.row, err.value.col) == (2, 1)

    def test_misaligned_array_copied_once_aligned_one_kept(self):
        raw = np.zeros(4 * 6 + 1, dtype=np.uint8)
        misaligned = np.ndarray((2, 3), np.float32, buffer=raw, offset=1)
        misaligned[...] = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert not misaligned.flags.aligned
        es = EmbeddingSet(data=misaligned)
        assert es.data is not misaligned and es.data.flags.aligned
        np.testing.assert_array_equal(es.data, misaligned)
        aligned = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert EmbeddingSet(data=aligned).data is aligned


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        es = make_set(rng.standard_normal((7, 4)))
        path = tmp_path / "a.fsemb"
        save_embedding_set(es, path, pooling="mean-last-layer", source_id="demo")
        back = load_embedding_set(path)
        assert back.data.tobytes() == es.data.tobytes()

    def test_round_trip_many_random_sets(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 17))
            es = make_set(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4))
            path = tmp_path / f"r{trial}.fsemb"
            save_embedding_set(es, path)
            back = load_embedding_set(path)
            assert back.data.tobytes() == es.data.tobytes()

    def test_single_row_set(self, tmp_path):
        es = make_set([[1.5, -2.5, 3.0]])
        save_embedding_set(es, tmp_path / "one.fsemb")
        assert load_embedding_set(tmp_path / "one.fsemb").n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_embedding_set(tmp_path / "nope.fsemb")

    @pytest.mark.parametrize("name", ["dir.fsemb", "file/x.fsemb"])
    def test_directory_or_file_parent_is_missing_file(self, tmp_path, name):
        (tmp_path / "dir.fsemb").mkdir()
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(MissingFile):
            load_embedding_set(tmp_path / name)

    @pytest.mark.parametrize("name", ["dir", "file/x", "/dev/null"])
    @pytest.mark.parametrize("load", [load_model, load_meta_set], ids=["model", "meta-set"])
    def test_no_regular_file_is_missing_file_and_leaves_no_descriptor(self, tmp_path, load, name):
        if name.startswith("/") and not os.path.exists(name):
            pytest.skip(f"needs {name}")
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"")
        fds = "/proc/self/fd"
        before = len(os.listdir(fds)) if os.path.isdir(fds) else None
        with pytest.raises(MissingFile):
            load(tmp_path / name)
        if before is not None:
            assert len(os.listdir(fds)) == before

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fsemb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_embedding_set(path)

    def test_truncated_payload(self, tmp_path):
        es = make_set([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "t.fsemb"
        save_embedding_set(es, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayload):
            load_embedding_set(path)

    def test_loaded_array_is_aligned_and_read_only(self, tmp_path):
        data = np.random.default_rng(1).standard_normal((5, 3)).astype(np.float32)
        save_embedding_set(make_set(data), tmp_path / "a.fsemb")
        back = load_embedding_set(tmp_path / "a.fsemb")
        assert back.data.flags.aligned and back.data.flags.c_contiguous
        assert not back.data.flags.writeable

    @pytest.mark.parametrize("count, dim", [(0, 3), (2, 0), (0, 0)])
    def test_empty_header_is_bad_magic(self, tmp_path, count, dim):
        path = tmp_path / "e.fsemb"
        path.write_bytes(HEADER.pack(MAGIC, 1, count, dim, 1))
        with pytest.raises(BadMagic):
            load_embedding_set(path)

    def test_oversized_header_fails_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "big.fsemb"
        path.write_bytes(HEADER.pack(MAGIC, 1, 1 << 40, 1 << 20, 1) + b"\x00" * 16)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated for an impossible header")

        monkeypatch.setattr(np, "empty", no_alloc)
        with pytest.raises(TruncatedPayload):
            load_embedding_set(path)

    def test_nan_in_payload_reported_with_position(self, tmp_path):
        es = make_set([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "n.fsemb"
        save_embedding_set(es, path)
        blob = bytearray(path.read_bytes())
        # overwrite cell (0, 1) with a NaN pattern
        header = 25
        blob[header + 4 : header + 8] = np.float32("nan").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValue) as err:
            load_embedding_set(path)
        assert (err.value.row, err.value.col) == (0, 1)

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        from driftgauge.errors import IoFailure

        es = make_set([[1.0]])
        with pytest.raises(IoFailure):
            save_embedding_set(es, tmp_path / "no" / "such" / "dir" / "x.fsemb")

    @pytest.mark.parametrize(
        "sidecar",
        [b"[1, 2]", b"\xff\xfe not utf-8", b"{broken",
         pytest.param("written", id="written"), pytest.param(None, id="missing"),
         pytest.param("dir", id="directory")],
    )
    def test_unusable_sidecar_is_ignored(self, tmp_path, monkeypatch, sidecar):
        # Loading opens the .fsemb alone, whatever lies at the sidecar's path.
        es = make_set([[1.0, 2.0]])
        save_embedding_set(es, tmp_path / "s.fsemb", pooling="last-token")
        side = tmp_path / "s.fsemb.json"
        if sidecar != "written":
            side.unlink()
        if sidecar == "dir":
            side.mkdir()
        elif isinstance(sidecar, bytes):
            side.write_bytes(sidecar)
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        back = load_embedding_set(tmp_path / "s.fsemb")
        monkeypatch.undo()
        assert opened == [str(tmp_path / "s.fsemb")]
        assert back.data.tobytes() == es.data.tobytes()

    def test_sidecar_written(self, tmp_path):
        save_embedding_set(make_set([[1.0, 2.0]]), tmp_path / "s.fsemb", pooling="last-token")
        import json

        side = json.loads((tmp_path / "s.fsemb.json").read_text())
        assert side["count"] == 1 and side["dim"] == 2 and side["pooling"] == "last-token"
        assert side["source_id"] == "" and side["created_at"] == "1970-01-01T00:00:00Z"

    def test_golden_bytes(self, tmp_path):
        # The header and the sidecar's count, dim and dtype come from the array.
        es = make_set([[1.0, -2.0, 0.5], [3.0, 0.0, 4.0]])
        save_embedding_set(es, tmp_path / "g.fsemb", pooling="mean", source_id="demo")
        assert (tmp_path / "g.fsemb").read_bytes() == (
            HEADER.pack(MAGIC, 1, 2, 3, 1) + struct.pack("<6f", 1.0, -2.0, 0.5, 3.0, 0.0, 4.0)
        )
        assert (tmp_path / "g.fsemb.json").read_bytes() == (
            b'{\n  "count": 2,\n  "created_at": "1970-01-01T00:00:00Z",\n  "dim": 3,\n'
            b'  "dtype": "f32",\n  "pooling": "mean",\n  "source_id": "demo"\n}\n'
        )

    def test_sidecar_shape_is_not_read(self, tmp_path):
        save_embedding_set(make_set(np.ones((2, 3))), tmp_path / "s.fsemb")
        (tmp_path / "s.fsemb.json").write_text(
            '{"count": 5, "dim": 7, "dtype": "f64", "pooling": "cls", "source_id": "x"}'
        )
        back = load_embedding_set(tmp_path / "s.fsemb")
        assert (back.n, back.dim) == (2, 3)


class TestLoadFuzz:
    """Mutated headers and payload lengths end in a typed error, never a
    traceback; the unmutated file round-trips bit-exactly."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        count=st.integers(1, 6),
        dim=st.integers(1, 5),
        field=st.sampled_from(["none", "magic", "version", "count", "dim", "code", "payload"]),
        value=st.integers(0, 2**64 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_only_typed_errors_escape(self, tmp_path, count, dim, field, value, seed):
        data = np.random.default_rng(seed).standard_normal((count, dim)).astype(np.float32)
        fields = dict(magic=MAGIC, version=1, count=count, dim=dim, code=1)
        payload = data.tobytes()
        if field == "magic":
            fields["magic"] = value.to_bytes(8, "little")
        elif field in ("version", "dim"):
            fields[field] = value % 2**32
        elif field == "count":
            fields["count"] = value
        elif field == "code":
            fields["code"] = value % 256
        elif field == "payload":
            cut = value % (2 * len(payload) + 2)
            payload = payload[:cut] if cut <= len(payload) else payload + bytes(cut - len(payload))
        path = tmp_path / "f.fsemb"
        path.write_bytes(HEADER.pack(*fields.values()) + payload)
        try:
            back = load_embedding_set(path)
        except DriftGaugeError:
            assert field != "none"
            return
        assert back.data.shape == (fields["count"], fields["dim"])
        assert back.data.tobytes() == payload
        assert back.data.flags.aligned and not back.data.flags.writeable


class TestMoments:
    def test_two_point_example(self):
        ms = moments(make_set([[0.0, 0.0], [2.0, 2.0]]), variance_floor=1e-8)
        assert np.allclose(ms.mean, [1.0, 1.0])
        assert np.allclose(ms.var, [1.0, 1.0])

    def test_single_row_hits_floor(self):
        ms = moments(make_set([[5.0, 5.0]]), variance_floor=1e-8)
        assert np.allclose(ms.mean, [5.0, 5.0])
        assert np.allclose(ms.var, [1e-8, 1e-8])

    def test_standard_normal_monte_carlo(self):
        rng = np.random.default_rng(42)
        es = make_set(rng.standard_normal((10_000, 4)))
        ms = moments(es)
        assert np.all(np.abs(ms.mean) < 0.05)
        assert np.all(np.abs(ms.var - 1.0) < 0.1)

    def test_population_convention(self):
        ms = moments(make_set([[0.0], [1.0]]))
        assert ms.var[0] == pytest.approx(0.25)  # divide by n, not n-1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((25, 3)).astype(np.float32)
        perm = rng.permutation(25)
        a = moments(make_set(data))
        b = moments(make_set(data[perm]))
        assert np.allclose(a.mean, b.mean) and np.allclose(a.var, b.var)

    def test_self_concatenation_invariant(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((12, 5)).astype(np.float32)
        once = moments(make_set(data))
        twice = moments(make_set(np.vstack([data, data])))
        assert np.allclose(once.mean, twice.mean) and np.allclose(once.var, twice.var)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            moments(make_set([[1.0]]), variance_floor=0.0)

    def test_memoized_on_the_set(self):
        es = make_set(np.random.default_rng(9).standard_normal((20, 3)))
        assert moments(es) is moments(es)

    def test_memo_keyed_by_floor(self):
        es = make_set([[1.0, 0.0], [1.0, 2.0]])
        low = moments(es, variance_floor=1e-8)
        high = moments(es, variance_floor=0.5)
        assert high is not low
        assert low.var[0] == 1e-8 and high.var[0] == 0.5
        assert moments(es, variance_floor=1e-8) is low
        assert moments(es, variance_floor=0.5) is high

    def test_new_sets_start_without_memo(self, tmp_path):
        es = make_set(np.random.default_rng(10).standard_normal((15, 4)))
        first = moments(es)
        assert "_memo" in vars(es)
        save_embedding_set(es, tmp_path / "s.fsemb")
        for other in (
            subsample(es, es.n, seed=1),
            EmbeddingSet(data=es.data),
            load_embedding_set(tmp_path / "s.fsemb"),
        ):
            assert "_memo" not in vars(other)
            again = moments(other)
            assert again is not first
            assert np.allclose(again.mean, first.mean) and np.allclose(again.var, first.var)


class TestSubsample:
    def test_full_size_is_permutation(self):
        rng = np.random.default_rng(5)
        es = make_set(rng.standard_normal((10, 3)))
        out = subsample(es, 10, seed=1)
        assert sorted(map(tuple, out.data.tolist())) == sorted(map(tuple, es.data.tolist()))

    def test_single_row(self):
        es = make_set([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = subsample(es, 1, seed=0)
        assert out.n == 1
        assert tuple(out.data[0]) in {(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)}

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        es = make_set(rng.standard_normal((30, 4)))
        a = subsample(es, 12, seed=99)
        b = subsample(es, 12, seed=99)
        assert np.array_equal(a.data, b.data)

    def test_rows_from_input_no_duplicates(self):
        data = np.arange(40, dtype=np.float32).reshape(20, 2)
        out = subsample(make_set(data), 15, seed=3)
        rows = {tuple(r) for r in out.data.tolist()}
        assert len(rows) == 15
        assert rows <= {tuple(r) for r in data.tolist()}

    def test_size_exceeds_population(self):
        es = make_set([[1.0]])
        with pytest.raises(SizeExceedsPopulation):
            subsample(es, 2, seed=0)
