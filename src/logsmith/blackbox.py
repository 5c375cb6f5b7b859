"""Streaming black-box template discovery over unmatched logs.

A fixed-depth prefix tree groups messages by token count and the first
``depth - 1`` tokens, then merges each message into the most similar leaf
cluster (or seeds a new one). Tokens containing digits never become tree
keys — they route to a catch-all child ``<*>``, as does any token once a
node is full. Cluster templates only generalize: a position that became a
wildcard stays a wildcard.

Similarity is the share of positions where the cluster's template holds
the message's token or a wildcard. Each leaf splits positions in two:

- a *fixed* position lies on the leaf's path under a key other than
  ``<*>``. Every message in the leaf holds that key there, so every
  cluster does too, and it adds one to every cluster's count;
- a *free* position is any other one: past the first ``depth - 1``
  tokens, or on the path under ``<*>``. For each, the leaf keeps an
  inverted index from token to the clusters holding it, and the list of
  clusters holding ``<*>``.

Ingest counts the index hits of the message's free tokens. A cluster with
no hit ties every other such cluster at the fixed-position count, so the
first of them stands for all. The cost of a line is O(tokens + hits), not
O(tokens × clusters in the leaf) as a scan of the leaf would be, and
never more than that scan. A leaf builds its index with its second
cluster; until then it compares with its one cluster directly, which
costs less time and memory, and most leaves never get a second.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .templates import Template, TemplateBody, WILD

CLUSTER_WILDCARD = "<*>"


class EmptyMessage(Exception):
    """Raised for all-whitespace input, which forms no cluster."""


@dataclass
class Cluster:
    cluster_id: int
    template_tokens: list[str]
    match_count: int = 1


@dataclass(slots=True)
class _Node:
    children: dict = field(default_factory=dict)
    clusters: list[Cluster] = field(default_factory=list)
    # The leaf index, built with the leaf's second cluster (None before).
    # Clusters are named by their place in ``clusters``.
    # ``postings[k]`` maps a token to the clusters holding it at position
    # ``free[k]`` (an int for one, a list once shared) and ``wildcards[k]``
    # lists those holding ``<*>``.
    free: tuple[int, ...] = ()
    postings: list[dict] | None = None
    wildcards: list[list[int]] | None = None

    def best(self, tokens: list[str]) -> tuple[int, int]:
        """(index, positions agreeing) of the most similar cluster.

        Ties go to the cluster created first, as a left-to-right scan with
        a strict ``>`` would pick.
        """
        if self.postings is None:
            return 0, sum(1 for ours, theirs in zip(self.clusters[0].template_tokens, tokens)
                          if ours == theirs or ours == CLUSTER_WILDCARD)
        fixed = len(tokens) - len(self.free)
        counts: Counter = Counter()
        for position, posting, wildcards in zip(self.free, self.postings, self.wildcards):
            holders = posting.get(tokens[position])
            if type(holders) is int:
                counts[holders] += 1
            elif holders is not None:
                counts.update(holders)
            if wildcards:
                counts.update(wildcards)
        if not counts:
            return 0, fixed
        top = max(counts.values())
        return min(index for index, count in counts.items() if count == top), fixed + top

    def add(self, cluster: Cluster, keys: list[str]) -> None:
        """Append ``cluster``; ``keys`` is the leaf's path."""
        self.clusters.append(cluster)
        if len(self.clusters) == 2:
            self.free = tuple([i for i, key in enumerate(keys) if key == CLUSTER_WILDCARD]
                              + list(range(len(keys), len(cluster.template_tokens))))
            self.postings = [{} for _ in self.free]
            self.wildcards = [[] for _ in self.free]
            self._post(0)
        if self.postings is not None:
            self._post(len(self.clusters) - 1)

    def _post(self, index: int) -> None:
        tokens = self.clusters[index].template_tokens
        for position, posting, wildcards in zip(self.free, self.postings, self.wildcards):
            token = tokens[position]
            if token == CLUSTER_WILDCARD:
                wildcards.append(index)
                continue
            holders = posting.get(token)
            if holders is None:
                posting[token] = index
            elif type(holders) is int:
                posting[token] = [holders, index]
            else:
                holders.append(index)

    def merge(self, index: int, tokens: list[str]) -> Cluster:
        """Generalize cluster ``index`` to ``tokens``."""
        cluster = self.clusters[index]
        cluster.match_count += 1
        template = cluster.template_tokens
        if self.postings is None:
            for position, token in enumerate(tokens):
                if template[position] != token:
                    template[position] = CLUSTER_WILDCARD
            return cluster
        # fixed positions agree, so only free ones can generalize
        for position, posting, wildcards in zip(self.free, self.postings, self.wildcards):
            ours = template[position]
            if ours == tokens[position] or ours == CLUSTER_WILDCARD:
                continue
            template[position] = CLUSTER_WILDCARD
            holders = posting[ours]
            if type(holders) is int:
                del posting[ours]
            else:
                holders.remove(index)
                if len(holders) == 1:
                    posting[ours] = holders[0]
            wildcards.append(index)
        return cluster


class ClusterTree:
    """Drain-style fixed-depth prefix tree of log message clusters."""

    def __init__(self, depth: int = 4, sim_threshold: float = 0.4,
                 max_children: int = 100):
        if depth < 2:
            raise ValueError("depth must be >= 2")
        if not 0.0 < sim_threshold <= 1.0:
            raise ValueError("sim_threshold must be in (0, 1]")
        if max_children < 1:
            raise ValueError("max_children must be >= 1")
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self.root: dict[int, _Node] = {}
        self._clusters: list[Cluster] = []
        self._next_id = 1

    def ingest(self, message: str) -> tuple[int, str]:
        """Cluster one message; returns (cluster_id, current template string)."""
        tokens = message.split()
        if not tokens:
            raise EmptyMessage("all-whitespace message")

        node = self.root.get(len(tokens))
        if node is None:
            node = self.root[len(tokens)] = _Node()
        keys = []
        for token in tokens[:self.depth - 1]:
            key = self._child_key(node, token)
            keys.append(key)
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
            node = child

        if node.clusters:
            index, same = node.best(tokens)
            if same / len(tokens) >= self.sim_threshold:
                cluster = node.merge(index, tokens)
                return cluster.cluster_id, " ".join(cluster.template_tokens)

        cluster = Cluster(cluster_id=self._next_id, template_tokens=tokens)
        self._next_id += 1
        node.add(cluster, keys)
        self._clusters.append(cluster)
        return cluster.cluster_id, " ".join(tokens)

    def _child_key(self, node: _Node, token: str) -> str:
        if any(map(str.isdigit, token)):
            return CLUSTER_WILDCARD
        if token in node.children:
            return token
        # reserve headroom: past the cap, unseen tokens share the catch-all
        if len(node.children) - (CLUSTER_WILDCARD in node.children) < self.max_children:
            return token
        return CLUSTER_WILDCARD

    @property
    def clusters(self) -> list[Cluster]:
        return list(self._clusters)

    def export_templates(self) -> list[Template]:
        """One repository template per cluster, in creation order."""
        exported = []
        for cluster in self._clusters:
            segments: list = []
            for i, token in enumerate(cluster.template_tokens):
                if i > 0:
                    segments.append(" ")
                if token == CLUSTER_WILDCARD:
                    segments.append(WILD)
                else:
                    segments.append(token)
            exported.append(Template(
                body=TemplateBody.from_segments(segments),
                source="blackbox",
                match_count=cluster.match_count,
            ))
        return exported
