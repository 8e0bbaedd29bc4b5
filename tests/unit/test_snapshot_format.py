"""Arena file-format validation: magic, header, sections, checksums.

Every malformed-file failure mode must surface as a typed
:class:`~repro.exceptions.SnapshotFormatError` naming the file — a
worker attaching a bad arena should die with a diagnosis, never with a
numpy shape error three layers deep.
"""

import json
import pickle
import shutil
import struct

import numpy as np
import pytest

from repro.exceptions import SnapshotFormatError
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
)
from repro.io.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAGIC,
    FrozenSnapshot,
    freeze,
)
from repro.roadnet.csr import CSRGraph

SCALE = ExperimentScale(
    road_vertices=60, num_pois=20, num_users=40, max_groups=200
)
SEED = 3


@pytest.fixture(scope="module")
def arena(tmp_path_factory):
    network = build_dataset("UNI", SCALE, seed=SEED)
    processor = make_processor(network, seed=SEED)
    path = tmp_path_factory.mktemp("fmt") / "net.gpsnap"
    freeze(network, path, processor=processor)
    return path


def _craft(path, header: dict) -> None:
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)


def _rewrite_header(arena, dest, edit) -> None:
    """Copy ``arena`` to ``dest`` with ``edit(header)`` applied."""
    data = arena.read_bytes()
    (length,) = struct.unpack("<Q", data[len(MAGIC):len(MAGIC) + 8])
    header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
    blob = blob.encode("utf-8")
    start = min(entry["offset"] for entry in header["sections"])
    head = MAGIC + struct.pack("<Q", len(blob)) + blob
    assert len(head) <= start
    dest.write_bytes(head + b"\x00" * (start - len(head)) + data[start:])


def _previous_version(header) -> None:
    """The version-1 header: the previous format carried a
    ``refinement_kernel`` in ``build_args``."""
    header["version"] = 1
    header["meta"]["build_args"]["refinement_kernel"] = "vector"


def _removed_engine(header) -> None:
    """A current-version header naming the removed ``plain`` engine, as
    every arena frozen from a default network used to."""
    header["meta"]["distance_engine"] = "plain"


def _removed_build_engine(header) -> None:
    """The removed engine named only in the recorded build arguments."""
    header["meta"]["build_args"]["distance_engine"] = "plain"


def _stale_arenas(arena, tmp_path):
    """``(path, error pattern)`` for every arena ``open`` must refuse."""
    out = []
    for edit, match in (
        (_previous_version, "version 1"),
        (_removed_engine, "unknown distance engine 'plain'"),
        (_removed_build_engine, "unknown distance engine 'plain'"),
    ):
        dest = tmp_path / f"{edit.__name__.strip('_')}.gpsnap"
        _rewrite_header(arena, dest, edit)
        out.append((dest, match))
    return out


class TestOpen:
    def test_roundtrip(self, arena):
        frozen = FrozenSnapshot.open(arena)
        counts = frozen.meta["counts"]
        assert counts["vertices"] == SCALE.road_vertices
        assert counts["pois"] == SCALE.num_pois
        assert counts["users"] == SCALE.num_users
        assert frozen.bytes_mapped == arena.stat().st_size
        for name in ("road/ids", "road/indptr", "poi/ids", "user/ids",
                     "social/edges", "pivot/rows"):
            assert name in frozen.sections
        # sections are read-only memmap views, not heap copies
        assert isinstance(frozen.sections["road/ids"], np.memmap) or \
            frozen.sections["road/ids"].base is not None
        frozen.verify()  # all checksums intact

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="nope.gpsnap"):
            FrozenSnapshot.open(tmp_path / "nope.gpsnap")

    def test_bad_magic(self, arena, tmp_path):
        bad = tmp_path / "bad_magic.gpsnap"
        data = bytearray(arena.read_bytes())
        data[:len(MAGIC)] = b"NOTASNAP"
        bad.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            FrozenSnapshot.open(bad)

    def test_declared_header_longer_than_file(self, tmp_path):
        bad = tmp_path / "short.gpsnap"
        bad.write_bytes(MAGIC + struct.pack("<Q", 10**6) + b"{}")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            FrozenSnapshot.open(bad)

    def test_corrupted_header_json(self, arena, tmp_path):
        bad = tmp_path / "bad_json.gpsnap"
        data = bytearray(arena.read_bytes())
        data[len(MAGIC) + 8] = 0xFF  # first header byte: invalid UTF-8
        bad.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="corrupted header"):
            FrozenSnapshot.open(bad)

    def test_wrong_format_name(self, tmp_path):
        bad = tmp_path / "other.gpsnap"
        _craft(bad, {"format": "something-else", "version": FORMAT_VERSION})
        with pytest.raises(SnapshotFormatError, match="something-else"):
            FrozenSnapshot.open(bad)

    def test_unsupported_version(self, tmp_path):
        bad = tmp_path / "future.gpsnap"
        _craft(bad, {"format": FORMAT_NAME, "version": FORMAT_VERSION + 1})
        with pytest.raises(SnapshotFormatError, match="version"):
            FrozenSnapshot.open(bad)

    def test_previous_version_arena_rejected(self, arena, tmp_path):
        """A version-1 arena (its build_args still name a refinement
        kernel), or one naming a removed distance engine, must fail at
        open, before any processor is built."""
        for old, match in _stale_arenas(arena, tmp_path):
            with pytest.raises(SnapshotFormatError, match=match):
                FrozenSnapshot.open(old)

    def test_previous_version_arena_exits_2_in_serve(self, arena, tmp_path):
        from repro.cli import main

        for old, _match in _stale_arenas(arena, tmp_path):
            assert main(
                ["serve", "--snapshot", str(old), "--port", "0"]
            ) == 2, old.name

    def test_truncated_section(self, arena, tmp_path):
        bad = tmp_path / "cut.gpsnap"
        shutil.copyfile(arena, bad)
        with open(bad, "r+b") as handle:
            handle.truncate(arena.stat().st_size - 64)
        with pytest.raises(SnapshotFormatError, match="truncated file"):
            FrozenSnapshot.open(bad)

    def test_corrupted_section_fails_verify(self, arena, tmp_path):
        bad = tmp_path / "flip.gpsnap"
        data = bytearray(arena.read_bytes())
        data[-8] ^= 0xFF  # flip one byte inside the last section
        bad.write_bytes(data)
        frozen = FrozenSnapshot.open(bad)  # O(1) open never checksums
        with pytest.raises(SnapshotFormatError, match="checksum"):
            frozen.verify()


class TestCSRGraphPickleParity:
    """Borrowed/memmapped arrays must never leak into worker pickles."""

    def test_getstate_owns_borrowed_arrays(self, arena):
        frozen = FrozenSnapshot.open(arena)
        s = frozen.sections
        borrowed = CSRGraph.from_arrays(
            s["road/ids"], s["road/indptr"], s["road/indices"],
            s["road/weights"], road_version=0,
        )
        clone = pickle.loads(pickle.dumps(borrowed))
        for attr in ("indptr", "indices", "weights"):
            arr = getattr(clone, attr)
            assert not isinstance(arr, np.memmap)
            np.testing.assert_array_equal(arr, np.asarray(getattr(borrowed, attr)))
        assert list(clone.ids) == [int(i) for i in borrowed.ids]
        seeds = [(int(borrowed.ids[0]), 0.0)]
        assert dict(clone.sssp(seeds)) == dict(borrowed.sssp(seeds))
