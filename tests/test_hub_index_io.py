"""HubIndex save/load round-trips and staleness rejection."""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.core.sds_indexed import indexed_reverse_k_ranks
from repro.errors import IndexParameterError
from repro.graph import CompactGraph, Graph


def build_graph(extra_edge: bool = False) -> Graph:
    graph = Graph(name="io-fixture")
    edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.5), (0, 4, 9.0)]
    for source, target, weight in edges:
        graph.add_edge(source, target, weight)
    if extra_edge:
        graph.add_edge(1, 4, 2.5)
    return graph


def test_save_load_round_trip(tmp_path):
    graph = build_graph()
    index = HubIndex.build(graph, num_hubs=2, capacity=4)
    path = tmp_path / "warm.hubindex"
    assert index.save(path) == path

    loaded = HubIndex.load(path, graph)
    assert loaded.graph is graph
    assert loaded.capacity == index.capacity
    assert loaded.hubs == index.hubs
    assert loaded.num_known_ranks == index.num_known_ranks
    for hub in index.hubs:
        assert loaded.explored_count(hub) == index.explored_count(hub)
        for node in graph.nodes():
            assert loaded.known_rank(hub, node) == index.known_rank(hub, node)
    for node in graph.nodes():
        assert loaded.known_reverse_ranks(node) == index.known_reverse_ranks(node)
        assert loaded.check_value(node) == index.check_value(node)

    # A loaded index answers queries exactly like the original.
    for query in (0, 3):
        assert (
            indexed_reverse_k_ranks(graph, query, 2, index=loaded).as_pairs()
            == indexed_reverse_k_ranks(graph, query, 2, index=index).as_pairs()
        )


def test_save_rejects_stale_index(tmp_path):
    # Saving after a mutation would pair the build-time version with a
    # digest of the *mutated* adjacency — a file load() could mistake for
    # fresh — so save() itself must refuse.
    graph = build_graph()
    index = HubIndex.build(graph, num_hubs=1, capacity=4)
    graph.add_edge(0, 1, 0.5)
    with pytest.raises(IndexParameterError, match="stale"):
        index.save(tmp_path / "stale.hubindex")


def test_load_rejects_mutated_graph(tmp_path):
    graph = build_graph()
    path = tmp_path / "stale.hubindex"
    HubIndex.build(graph, num_hubs=1, capacity=4).save(path)
    # Lowering an existing edge's weight bumps the mutation version while
    # keeping the structural fingerprint (|V|, |E|) unchanged — exactly the
    # mutation only the version check can catch.
    graph.add_edge(0, 1, 0.5)
    with pytest.raises(IndexParameterError, match="stale"):
        HubIndex.load(path, graph)


def test_load_rejects_different_graph(tmp_path):
    path = tmp_path / "wrong.hubindex"
    HubIndex.build(build_graph(), num_hubs=1, capacity=4).save(path)
    with pytest.raises(IndexParameterError, match="different graph"):
        HubIndex.load(path, build_graph(extra_edge=True))


def test_load_rejects_non_index_payload(tmp_path):
    path = tmp_path / "junk.hubindex"
    with open(path, "wb") as handle:
        pickle.dump({"format": "something-else"}, handle)
    with pytest.raises(IndexParameterError, match="not a serialised hub index"):
        HubIndex.load(path, build_graph())


def test_load_rejects_future_io_version(tmp_path):
    from repro.core.hub_index import _IO_MAGIC

    graph = build_graph()
    path = tmp_path / "future.hubindex"
    HubIndex.build(graph, num_hubs=1, capacity=4).save(path)
    with open(path, "rb") as handle:
        handle.read(len(_IO_MAGIC))
        payload = pickle.load(handle)
    payload["io_version"] = 999
    with open(path, "wb") as handle:
        handle.write(_IO_MAGIC)
        pickle.dump(payload, handle)
    with pytest.raises(IndexParameterError, match="I/O version"):
        HubIndex.load(path, graph)


def test_load_rejects_same_shape_different_weights(tmp_path):
    graph = build_graph()
    path = tmp_path / "weights.hubindex"
    HubIndex.build(graph, num_hubs=2, capacity=4).save(path)
    # Identical mutation history (same |V|, |E|, directed AND version),
    # different weights: only the adjacency content digest can tell.
    twin = Graph(name="io-fixture")
    edges = [(0, 1, 9.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.5), (0, 4, 9.0)]
    for source, target, weight in edges:
        twin.add_edge(source, target, weight)
    assert twin.version == graph.version
    with pytest.raises(IndexParameterError, match="digest"):
        HubIndex.load(path, twin)


def test_load_rejects_files_without_magic_before_unpickling(tmp_path):
    path = tmp_path / "nomagic.hubindex"
    path.write_bytes(b"definitely not an index payload")
    with pytest.raises(IndexParameterError, match="not a serialised hub index"):
        HubIndex.load(path, build_graph())


def test_load_rejects_truncated_file_with_valid_magic(tmp_path):
    # A crash mid-write leaves a file whose magic prefix is intact but
    # whose pickle stream is cut short.  load() must surface that as the
    # typed IndexParameterError, not a raw UnpicklingError/EOFError.
    graph = build_graph()
    path = tmp_path / "truncated.hubindex"
    HubIndex.build(graph, num_hubs=2, capacity=4).save(path)
    blob = path.read_bytes()
    from repro.core.hub_index import _IO_MAGIC

    assert blob.startswith(_IO_MAGIC)
    path.write_bytes(blob[: len(_IO_MAGIC) + (len(blob) - len(_IO_MAGIC)) // 2])
    with pytest.raises(IndexParameterError, match="truncated or corrupted"):
        HubIndex.load(path, graph)


def test_save_is_atomic_under_write_failure(tmp_path, monkeypatch):
    # A failed save must leave a previously-good index file byte-identical
    # (os.replace never ran) and must not litter temp files.
    graph = build_graph()
    path = tmp_path / "atomic.hubindex"
    index = HubIndex.build(graph, num_hubs=2, capacity=4)
    index.save(path)
    good_bytes = path.read_bytes()

    import repro.core.hub_index as hub_index_module

    def exploding_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(hub_index_module.os, "fsync", exploding_fsync)
    with pytest.raises(OSError, match="disk full"):
        index.save(path)
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.hubindex"]
    # The surviving file still loads.
    assert HubIndex.load(path, graph).hubs == index.hubs


def test_save_to_new_path_under_write_failure_leaves_no_file(
    tmp_path, monkeypatch
):
    graph = build_graph()
    path = tmp_path / "never.hubindex"
    index = HubIndex.build(graph, num_hubs=1, capacity=4)

    import repro.core.hub_index as hub_index_module

    monkeypatch.setattr(
        hub_index_module.os,
        "fsync",
        lambda fd: (_ for _ in ()).throw(OSError("disk full")),
    )
    with pytest.raises(OSError, match="disk full"):
        index.save(path)
    assert list(tmp_path.iterdir()) == []


def test_save_replaces_existing_file_atomically(tmp_path):
    # Overwriting an index goes through the same temp+replace dance; the
    # final file is the new payload and no temp residue remains.
    graph = build_graph()
    path = tmp_path / "replace.hubindex"
    small = HubIndex.build(graph, num_hubs=1, capacity=4)
    small.save(path)
    big = HubIndex.build(graph, num_hubs=2, capacity=4)
    big.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["replace.hubindex"]
    assert HubIndex.load(path, graph).hubs == big.hubs


def test_engine_adopts_loaded_index(tmp_path):
    graph = build_graph()
    path = tmp_path / "adopt.hubindex"
    HubIndex.build(graph, num_hubs=2, capacity=4).save(path)
    engine = ReverseKRanksEngine(graph)
    engine.adopt_index(HubIndex.load(path, graph))
    results = engine.query_many([0, 3], 2, algorithm="indexed")
    baseline = engine.query_many([0, 3], 2, algorithm="naive")
    for got, want in zip(results, baseline):
        assert got.rank_values() == want.rank_values()


def test_adopt_index_rejects_foreign_graph():
    graph = build_graph()
    other = build_graph()
    engine = ReverseKRanksEngine(graph)
    with pytest.raises(IndexParameterError):
        engine.adopt_index(HubIndex.build(other, num_hubs=1, capacity=4))


def test_csr_backed_build_matches_dict_build():
    graph = build_graph()
    csr = CompactGraph.from_graph(graph)
    dict_index = HubIndex.build(graph, num_hubs=2, capacity=4)
    csr_index = HubIndex.build(graph, num_hubs=2, capacity=4, backend=csr)
    # Handed the dict graph, the build compiles it and explores the same
    # compilation: identical entries, not merely identical ranks.
    assert dict_index.content_digest() == csr_index.content_digest()
    for hub in dict_index.hubs:
        for node in graph.nodes():
            assert dict_index.known_rank(hub, node) == csr_index.known_rank(hub, node)


def test_build_rejects_stale_backend():
    graph = build_graph()
    csr = CompactGraph.from_graph(graph)
    # Same node count, new version: only the version check can catch it —
    # and a stale build would record wrong ranks pinned to the new version.
    graph.add_edge(0, 1, 0.5)
    with pytest.raises(IndexParameterError, match="stale"):
        HubIndex.build(graph, num_hubs=1, capacity=4, backend=csr)
