from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith.blackbox import CLUSTER_WILDCARD, ClusterTree, EmptyMessage
from logsmith.templates import WILD, WILDCARD_TOKEN


def test_connect_failed_example():
    tree = ClusterTree()
    first_id, first_template = tree.ingest("connect to 10.0.0.1 failed")
    second_id, second_template = tree.ingest("connect to 10.0.0.2 failed")
    # a fresh cluster's template is the seeding message itself; the second
    # message merges in (3 of 4 positions agree) and generalizes position 2
    assert first_template == "connect to 10.0.0.1 failed"
    assert first_id == second_id
    assert second_template == "connect to <*> failed"
    clusters = tree.clusters
    assert len(clusters) == 1
    assert clusters[0].match_count == 2
    # only the address position generalized
    assert clusters[0].template_tokens == ["connect", "to", CLUSTER_WILDCARD, "failed"]


def test_identical_messages_share_cluster():
    tree = ClusterTree()
    a = tree.ingest("cache flush complete")
    b = tree.ingest("cache flush complete")
    assert a == b == (1, "cache flush complete")
    assert tree.clusters[0].match_count == 2


def test_token_count_partitions_clusters():
    tree = ClusterTree()
    short_id, _ = tree.ingest("disk full")
    long_id, _ = tree.ingest("disk full on node")
    assert short_id != long_id
    assert len(tree.clusters) == 2


def test_dissimilar_messages_split():
    tree = ClusterTree(sim_threshold=0.6)
    first, _ = tree.ingest("session opened for user root")
    second, _ = tree.ingest("connection closed by peer now")
    assert first != second


def test_digit_tokens_route_to_catch_all():
    tree = ClusterTree()
    tree.ingest("worker 17 started ok")
    tree.ingest("worker 9 started ok")
    root_node = tree.root[4]
    assert set(root_node.children) == {"worker"}
    assert set(root_node.children["worker"].children) == {CLUSTER_WILDCARD}
    assert len(tree.clusters) == 1
    assert tree.clusters[0].template_tokens == ["worker", CLUSTER_WILDCARD, "started", "ok"]


def test_max_children_overflow_shares_catch_all():
    tree = ClusterTree(depth=3, sim_threshold=0.99, max_children=2)
    tree.ingest("alpha x y")
    tree.ingest("bravo x y")
    tree.ingest("carol x y")
    tree.ingest("delta x y")
    top = tree.root[3]
    assert set(top.children) == {"alpha", "bravo", CLUSTER_WILDCARD}
    # the catch-all child holds the overflow clusters
    overflow = top.children[CLUSTER_WILDCARD]
    leaves = [cluster for node in overflow.children.values() for cluster in node.clusters]
    assert len(leaves) == 2


def test_catch_all_excluded_from_child_budget():
    tree = ClusterTree(depth=2, max_children=1)
    tree.ingest("v1 a")   # digit token: catch-all child, not counted
    tree.ingest("free a")  # still room for one named child
    tree.ingest("more a")  # cap reached: shares the catch-all
    top = tree.root[2]
    assert set(top.children) == {CLUSTER_WILDCARD, "free"}


def test_empty_message_raises_and_forms_no_cluster():
    tree = ClusterTree()
    with pytest.raises(EmptyMessage):
        tree.ingest("   ")
    with pytest.raises(EmptyMessage):
        tree.ingest("")
    assert tree.clusters == []


def test_export_maps_cluster_wildcards():
    tree = ClusterTree()
    tree.ingest("write exception e1")
    tree.ingest("write exception e2")
    templates = tree.export_templates()
    assert len(templates) == 1
    exported = templates[0]
    assert exported.body.segments == ("write exception ", WILD)
    assert exported.body.render() == "write exception <.*>"
    assert exported.source == "blackbox"
    assert exported.match_count == 2
    assert exported.level is None


def test_export_preserves_creation_order():
    tree = ClusterTree()
    tree.ingest("first event fired")
    tree.ingest("second stage began now")
    tree.ingest("first event fired")
    rendered = [t.body.render() for t in tree.export_templates()]
    assert rendered == ["first event fired", "second stage began now"]


def test_parameter_validation():
    with pytest.raises(ValueError):
        ClusterTree(depth=1)
    with pytest.raises(ValueError):
        ClusterTree(sim_threshold=0.0)
    with pytest.raises(ValueError):
        ClusterTree(sim_threshold=1.2)
    with pytest.raises(ValueError):
        ClusterTree(max_children=0)


def test_wildcards_never_revert():
    # messages share the depth-1 prefix path and meet in one leaf
    tree = ClusterTree(sim_threshold=0.3)
    tree.ingest("run job batch a done")
    tree.ingest("run job batch b done")
    expected = ["run", "job", "batch", CLUSTER_WILDCARD, "done"]
    assert tree.clusters[0].template_tokens == expected
    tree.ingest("run job batch a done")
    # position stays generalized even when the original token returns
    assert tree.clusters[0].template_tokens == expected


def _random_message(rng: random.Random) -> str:
    words = ("alpha", "bravo", "carol", "delta", "echo", "fox", "17", "x9", "go")
    return " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))


def test_streaming_properties_hold_on_random_input():
    rng = random.Random(20240821)
    messages = [_random_message(rng) for _ in range(1200)]

    tree = ClusterTree()
    assignments = []
    for message in messages:
        cluster_id, template = tree.ingest(message)
        assignments.append((cluster_id, template))
        tokens = message.split()
        template_tokens = template.split()
        # the assigned template always spans the message token-for-token
        assert len(template_tokens) == len(tokens)
        assert all(ours == theirs or ours == CLUSTER_WILDCARD
                   for ours, theirs in zip(template_tokens, tokens))

    # determinism: replaying the same stream reproduces every assignment
    replay = ClusterTree()
    assert [replay.ingest(m) for m in messages] == assignments

    # conservation: match counts add up to the stream length
    assert sum(c.match_count for c in tree.clusters) == len(messages)
    # cluster ids are unique and dense
    ids = [c.cluster_id for c in tree.clusters]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_wildcard_monotonicity_on_random_input():
    rng = random.Random(77)
    tree = ClusterTree()
    wildcard_positions: dict[int, set[int]] = {}
    for _ in range(800):
        message = _random_message(rng)
        cluster_id, template = tree.ingest(message)
        now = {i for i, tok in enumerate(template.split()) if tok == CLUSTER_WILDCARD}
        before = wildcard_positions.get(cluster_id, set())
        assert before <= now  # generalization never reverts
        wildcard_positions[cluster_id] = now


class _ScanTree:
    """Brute-force reference: the same routing, then a scan of the leaf's
    clusters by similarity, the first strictly best one winning."""

    def __init__(self, depth: int, sim_threshold: float, max_children: int):
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self.root: dict = {}
        self.clusters: list[list] = []  # [cluster_id, template_tokens, match_count]

    def ingest(self, message: str) -> tuple[int, str]:
        tokens = message.split()
        node = self.root.setdefault(len(tokens), ({}, []))
        for token in tokens[:self.depth - 1]:
            children = node[0]
            if any(ch.isdigit() for ch in token):
                key = CLUSTER_WILDCARD
            elif (token in children or len(children) - (CLUSTER_WILDCARD in children)
                  < self.max_children):
                key = token
            else:
                key = CLUSTER_WILDCARD
            node = children.setdefault(key, ({}, []))
        best, best_sim = None, -1.0
        for cluster in node[1]:
            sim = _similarity(cluster[1], tokens)
            if sim > best_sim:
                best, best_sim = cluster, sim
        if best is not None and best_sim >= self.sim_threshold:
            best[1] = [ours if ours == theirs else CLUSTER_WILDCARD
                       for ours, theirs in zip(best[1], tokens)]
            best[2] += 1
        else:
            best = [len(self.clusters) + 1, list(tokens), 1]
            node[1].append(best)
            self.clusters.append(best)
        return best[0], " ".join(best[1])


def _similarity(template_tokens: list[str], tokens: list[str]) -> float:
    same = sum(1 for ours, theirs in zip(template_tokens, tokens)
               if ours == theirs or ours == CLUSTER_WILDCARD)
    return same / len(tokens)


# "²" and "٣" are digits that are not ASCII, "x²" holds one and "é" is a
# letter that is not ASCII
_TOKENS = st.sampled_from(("a", "b", "c", CLUSTER_WILDCARD, "x1", "7",
                           "²", "٣", "x²", "é"))
# mostly one length, so that messages meet in a few crowded leaves
_MESSAGES = st.integers(1, 5).flatmap(lambda length: st.lists(
    st.one_of(st.lists(_TOKENS, min_size=length, max_size=length),
              st.lists(_TOKENS, min_size=1, max_size=5)).map(" ".join),
    max_size=60))


@settings(max_examples=300, deadline=None)
@given(_MESSAGES, st.integers(2, 4), st.integers(1, 3),
       st.sampled_from((0.1, 0.4, 0.5, 1.0)))
def test_index_agrees_with_scan_reference(messages, depth, max_children, sim_threshold):
    tree = ClusterTree(depth=depth, sim_threshold=sim_threshold, max_children=max_children)
    reference = _ScanTree(depth, sim_threshold, max_children)
    for message in messages:
        assert tree.ingest(message) == reference.ingest(message)
    assert [(c.cluster_id, c.template_tokens, c.match_count) for c in tree.clusters] == [
        tuple(cluster) for cluster in reference.clusters]
    assert [(t.body.render(), t.match_count) for t in tree.export_templates()] == [
        (" ".join(WILDCARD_TOKEN if token == CLUSTER_WILDCARD else token
                  for token in tokens), count)
        for _, tokens, count in reference.clusters]


def _crowded_stream(rng: random.Random, lines: int) -> list[str]:
    """Lines of hidden whitespace-separated templates mixed with glued
    ``key=value`` metrics lines, which all reach one leaf. A metrics line
    is fresh, or keeps most pairs of one of a few base lines, so that the
    leaf's clusters share postings, tie and generalize."""
    keys = [key + glue for key in ("disk", "heap", "queue", "pool") for glue in "=:#"]
    bases = [[rng.choice(keys) + str(rng.randrange(10 ** 6)) for _ in range(6)]
             for _ in range(50)]
    templates = [[rng.choice(("kernel", "quota", "socket")), rng.choice(("read", "sync"))]
                 + [rng.choice(("ok", "slow", "")) for _ in range(rng.randint(3, 6))]
                 for _ in range(40)]
    stream = []
    for _ in range(lines):
        if rng.random() < 0.5:
            stream.append(" ".join(word or str(rng.randrange(100))
                                   for word in rng.choice(templates)))
            continue
        keep = rng.choice((0.0, 0.9))
        stream.append("gauge pulse " + " ".join(
            pair if rng.random() < keep else rng.choice(keys) + str(rng.randrange(10 ** 6))
            for pair in rng.choice(bases)))
    return stream


def test_crowded_leaves_agree_with_scan_reference():
    # the hypothesis test stops at 60 messages; this stream crowds the
    # metrics leaf with hundreds of clusters, and a line often ties between
    # several of them
    tree = ClusterTree(sim_threshold=0.8)
    reference = _ScanTree(4, 0.8, 100)
    for line in _crowded_stream(random.Random(19), 3000):
        assert tree.ingest(line) == reference.ingest(line), line
    metrics_leaf = reference.root[8][0]["gauge"][0]["pulse"][0][CLUSTER_WILDCARD]
    assert len(metrics_leaf[1]) >= 300
    assert [(c.cluster_id, c.template_tokens, c.match_count) for c in tree.clusters] == [
        tuple(cluster) for cluster in reference.clusters]


def test_generalized_position_counts_for_its_cluster():
    tree = ClusterTree(depth=2, sim_threshold=0.5)
    assert tree.ingest("a x y z")[0] == 1
    assert tree.ingest("a b c d")[0] == 2
    assert tree.ingest("a b c q") == (2, "a b c <*>")
    # cluster 2 agrees on a, c and its wildcard (3 of 4), cluster 1 on a, x
    assert tree.ingest("a x c r") == (2, "a <*> c <*>")


def test_one_crowded_leaf_ingests_in_bounded_time():
    # every line shares the `gauge pulse` path and its other six tokens are
    # unique, so each starts a cluster in the same leaf; a scan of that leaf
    # would make about 5e7 cluster comparisons
    lines = [f"gauge pulse k={n} v={n + 1} w={n + 2} x={n + 3} y={n + 4} z={n + 5}"
             for n in range(0, 60_000, 6)]
    tree = ClusterTree()
    started = time.perf_counter()
    for line in lines:
        tree.ingest(line)
    assert time.perf_counter() - started < 2.0
    assert len(tree.clusters) == len(lines) == 10_000
