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

Ingest counts the index hits of the message's free tokens in a dict. A
cluster with no hit ties every other such cluster at the fixed-position
count, so the first of them stands for all. The cost of a line is
O(tokens + hits), not O(tokens × clusters in the leaf) as a scan of the
leaf would be, and never more than that scan.

Most leaves never get a second cluster, so a leaf builds its index only
with its second one, from the path's free positions, which it finds by
walking the path again; the walk down keeps no record of the path. Until
then ``ingest`` compares the message with the leaf's one cluster and
merges it inline. When no message token is ``<*>`` itself, the agreeing
positions are the equal ones plus the template's wildcards, counted in C.
An alphabetic token holds no digit, so only other path tokens take the
digit test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq

from .templates import Template, TemplateBody, WILD

CLUSTER_WILDCARD = "<*>"


class EmptyMessage(Exception):
    """Raised for all-whitespace input, which forms no cluster."""


@dataclass(slots=True)
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
        """(index, positions agreeing) of the most similar indexed cluster.

        Ties go to the cluster created first, as a left-to-right scan with
        a strict ``>`` would pick.
        """
        counts: dict[int, int] = {}
        get = counts.get
        for position, posting, wildcards in zip(self.free, self.postings, self.wildcards):
            holders = posting.get(tokens[position])
            if type(holders) is int:
                counts[holders] = get(holders, 0) + 1
            elif holders is not None:
                for index in holders:
                    counts[index] = get(index, 0) + 1
            for index in wildcards:
                counts[index] = get(index, 0) + 1
        fixed = len(tokens) - len(self.free)
        if not counts:
            return 0, fixed
        top = max(counts.values())
        return min(index for index, count in counts.items() if count == top), fixed + top

    def add(self, cluster: Cluster) -> None:
        self.clusters.append(cluster)
        if self.postings is not None:
            self._post(len(self.clusters) - 1)

    def index(self, free: tuple[int, ...]) -> None:
        """Build the leaf index over the ``free`` positions."""
        self.free = free
        self.postings = [{} for _ in free]
        self.wildcards = [[] for _ in free]
        for index in range(len(self.clusters)):
            self._post(index)

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
        """Generalize indexed cluster ``index`` to ``tokens``."""
        cluster = self.clusters[index]
        cluster.match_count += 1
        template = cluster.template_tokens
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
        for token in tokens[:self.depth - 1]:
            children = node.children
            # an alphabetic token holds no digit, so it skips the digit test
            if not token.isalpha() and any(map(str.isdigit, token)):
                token = CLUSTER_WILDCARD
            # reserve headroom: past the cap, unseen tokens share the catch-all
            elif token not in children and (len(children) - (CLUSTER_WILDCARD in children)
                                            >= self.max_children):
                token = CLUSTER_WILDCARD
            child = children.get(token)
            if child is None:
                child = children[token] = _Node()
            node = child

        clusters = node.clusters
        if node.postings is not None:
            index, same = node.best(tokens)
            if same / len(tokens) >= self.sim_threshold:
                cluster = node.merge(index, tokens)
                return cluster.cluster_id, " ".join(cluster.template_tokens)
        elif clusters:
            cluster = clusters[0]
            template = cluster.template_tokens
            if CLUSTER_WILDCARD in tokens:
                same = sum(1 for ours, theirs in zip(template, tokens)
                           if ours == theirs or ours == CLUSTER_WILDCARD)
            else:
                # no token is a wildcard, so one agrees only where it is equal
                same = sum(map(eq, template, tokens)) + template.count(CLUSTER_WILDCARD)
            if same / len(tokens) >= self.sim_threshold:
                cluster.match_count += 1
                if same < len(tokens):
                    for position, token in enumerate(tokens):
                        if template[position] != token:
                            template[position] = CLUSTER_WILDCARD
                return cluster.cluster_id, " ".join(template)

        cluster = Cluster(self._next_id, tokens)
        self._next_id += 1
        node.add(cluster)
        if len(clusters) == 2:
            node.index(self._free_positions(tokens))
        self._clusters.append(cluster)
        return cluster.cluster_id, " ".join(tokens)

    def _free_positions(self, tokens: list[str]) -> tuple[int, ...]:
        """The free positions of the leaf that ``tokens`` reached.

        A token with a digit never becomes a key, so a path token found
        among its node's children was routed under itself, and any other
        went under the catch-all.
        """
        node = self.root[len(tokens)]
        path = tokens[:self.depth - 1]
        free = []
        for position, token in enumerate(path):
            child = node.children.get(token)
            if child is None or token == CLUSTER_WILDCARD:
                free.append(position)
                child = node.children[CLUSTER_WILDCARD]
            node = child
        return tuple(free) + tuple(range(len(path), len(tokens)))

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
