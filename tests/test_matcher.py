from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith.blackbox import ClusterTree
from logsmith.matcher import (
    CompiledEntry,
    DuplicateTemplate,
    MatchCounts,
    compile_repository,
    match_line,
    match_stream,
    run_stream,
)
from logsmith.templates import WILD, Template, TemplateBody
from oracle import compile_body, compile_reference


def _template(text: str, **kwargs) -> Template:
    return Template(body=TemplateBody.parse(text), **kwargs)


def _repo(*texts: str, allow_empty_inner: bool = False):
    return compile_repository([_template(t) for t in texts],
                              allow_empty_inner=allow_empty_inner)


def test_compile_body_anchoring_and_captures():
    pattern = compile_body(TemplateBody.parse("User_<.*>_NotFound"))
    assert pattern.fullmatch("User_ADMIN_NotFound").groups() == ("ADMIN",)
    assert pattern.fullmatch("before User_ADMIN_NotFound") is None
    assert pattern.fullmatch("User_ADMIN_NotFound after") is None


def test_constants_are_escaped():
    pattern = compile_body(TemplateBody.parse("a.b (x) [y] <.*>"))
    assert pattern.fullmatch("a.b (x) [y] z") is not None
    assert pattern.fullmatch("aXb (x) [y] z") is None


def test_inner_wildcard_needs_content_by_default():
    pattern = compile_body(TemplateBody.parse("a<.*>b"))
    assert pattern.fullmatch("ab") is None
    assert pattern.fullmatch("a1b") is not None
    relaxed = compile_body(TemplateBody.parse("a<.*>b"), allow_empty_inner=True)
    assert relaxed.fullmatch("ab") is not None


def test_edge_wildcards_may_be_empty():
    pattern = compile_body(TemplateBody.parse("<.*>mid<.*>"))
    assert pattern.fullmatch("mid") is not None
    assert pattern.fullmatch("Xmid") is not None
    assert pattern.fullmatch("midY") is not None


def test_ordering_most_specific_first():
    repo = _repo("a <.*>", "a b <.*>")
    assert [e.template.body.render() for e in repo.entries] == ["a b <.*>", "a <.*>"]
    result = match_line(repo, "a b c")
    assert result.template == "a b <.*>"
    assert result.template_id == 0


def test_ordering_breaks_ties_on_wildcard_count():
    # all three carry 4 constant chars; fewer wildcards sorts first
    repo = _repo("ab<.*>c<.*>d", "abcd", "ab<.*>cd")
    rendered = [e.template.body.render() for e in repo.entries]
    assert rendered == ["abcd", "ab<.*>cd", "ab<.*>c<.*>d"]


def test_ordering_is_input_order_independent():
    texts = ["x <.*> y", "x <.*>", "longer constant <.*>", "x y z"]
    forward = _repo(*texts)
    backward = _repo(*reversed(texts))
    assert ([e.template.body.render() for e in forward.entries]
            == [e.template.body.render() for e in backward.entries])


def test_duplicate_bodies_rejected():
    with pytest.raises(DuplicateTemplate) as error:
        _repo("dup <.*>", "other", "dup <.*>")
    assert error.value.body.render() == "dup <.*>"


def test_match_line_strips_whitespace():
    repo = _repo("task done")
    assert match_line(repo, "  task done \n").matched
    assert match_line(repo, "task done").log_line == "task done"


def test_miss_routes_to_tree():
    repo = _repo("known event")
    tree = ClusterTree()
    result = match_line(repo, "unknown event 17", tree)
    assert not result.matched
    assert result.cluster_id == 1
    assert result.cluster_template == "unknown event 17"
    # without a tree the miss is simply reported
    plain = match_line(repo, "unknown event 17")
    assert not plain.matched and plain.cluster_id is None


def test_round_trip_rendered_templates_match_their_instances():
    rng = random.Random(20240822)
    words = ("read", "write", "node", "ok", "fail")
    for _ in range(300):
        segments = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                segments.append("<.*>")
            else:
                segments.append(rng.choice(words) + rng.choice((" ", "_", "")))
        body = TemplateBody.parse("".join(segments))
        instance = body.render(token=str(rng.randint(0, 999)))
        pattern = compile_body(body)
        if instance.strip() == instance:
            assert pattern.fullmatch(instance), body.render()


def test_run_stream_totality_and_conservation():
    repo = _repo("job <.*> finished", "queue empty")
    tree = ClusterTree()
    lines = [
        "job 12 finished\n",
        "queue empty\n",
        "   \n",
        "disk 9 offline\n",
        "job 99 finished\n",
        "disk 7 offline\n",
    ]
    results, counts = run_stream(repo, lines, tree)
    assert counts.total == 6
    assert counts.dropped_empty == 1
    assert counts.matched == 3
    assert counts.routed == 2
    assert counts.matched + counts.routed + counts.dropped_empty == counts.total
    assert len(results) == 5
    assert counts.match_rate == pytest.approx(3 / 6)
    # both disk lines landed in one cluster
    assert len(tree.clusters) == 1
    assert tree.clusters[0].match_count == 2


def test_run_stream_header_stripping():
    repo = _repo("task done")
    header = r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} \[\w+\] "
    lines = [
        "2024-03-01 10:00:00 [INFO] task done\n",
        "2024-03-01 10:00:01 [WARN] \n",  # empty after the header: dropped
        "task done\n",  # no header still works
    ]
    results, counts = run_stream(repo, lines, header_pattern=header)
    assert counts.total == 3
    assert counts.dropped_empty == 1
    assert counts.matched == 2
    assert all(r.matched for r in results)


def test_report_counts_recounts_results():
    repo = _repo("a <.*>", "b <.*>")
    _, counts = run_stream(repo, ["a 1", "a 2", "b 1", "zzz"])
    assert counts.matched == 3
    assert counts.routed == 1
    assert counts.total == 4
    by_template = {repo.entries[tid].template.body.render(): n
                   for tid, n in counts.per_template.items()}
    assert by_template == {"a <.*>": 2, "b <.*>": 1}


def test_match_stream_pulls_one_line_per_result():
    # each result comes out before the next line is read, with the counts
    # already taking it in
    repo = _repo("a <.*>", "b <.*>")
    pulled = []

    def lines():
        for line in ["a 1", "zzz", "b 2", "a 3"]:
            pulled.append(line)
            yield line

    counts = MatchCounts()
    stream = match_stream(repo, lines(), counts, ClusterTree())
    expected = [("a 1", True, 1, 0), ("zzz", False, 1, 1),
                ("b 2", True, 2, 1), ("a 3", True, 3, 1)]
    for number, (line, matched, n_matched, n_routed) in enumerate(expected, 1):
        result = next(stream)
        assert len(pulled) == number
        assert (result.log_line, result.matched) == (line, matched)
        assert (counts.total, counts.matched, counts.routed) == (number, n_matched,
                                                                  n_routed)
    assert next(stream, None) is None


def test_specific_template_dominates_mixed_stream():
    # one generic and one specific template; the specific one must win
    # on every line it can match
    repo = _repo("<.*>", "request <.*> served")
    results, counts = run_stream(
        repo, ["request 9 served\n"] * 4 + ["noise line\n"])
    specific = [r for r in results if r.template == "request <.*> served"]
    assert len(specific) == 4
    assert counts.matched == 5  # the catch-all takes the noise line


def test_empty_repository_routes_everything():
    repo = compile_repository([])
    tree = ClusterTree()
    results, counts = run_stream(repo, ["one thing\n", "another thing\n"], tree)
    assert counts.matched == 0
    assert counts.routed == 2
    assert len(tree.clusters) == 2


# Small alphabet: whitespace, the newline a capture may not hold, and the
# characters of the wildcard token, so constants overlap and repeat often.
_TEXT = st.text(alphabet="ab \n<.*>", max_size=6)
_BODIES = st.lists(st.one_of(st.just(WILD), _TEXT), max_size=6).map(
    TemplateBody.from_segments)


@st.composite
def _repository_and_messages(draw):
    bodies = list(dict.fromkeys(draw(st.lists(_BODIES, max_size=8))))
    messages = draw(st.lists(_TEXT, max_size=4))
    messages += draw(st.lists(st.text(alphabet=" \t\n", max_size=3), max_size=2))
    for body in draw(st.lists(st.sampled_from(bodies), max_size=4)) if bodies else ():
        fills = iter(draw(st.lists(_TEXT, min_size=len(body.segments),
                                   max_size=len(body.segments))))
        messages.append("".join(next(fills) if s is WILD else s
                                for s in body.segments))
    return bodies, messages


def _reference(repo, message: str, allow_empty_inner: bool):
    """A linear ``compile_body(...).fullmatch`` scan in compile order."""
    for entry in repo.entries:
        hit = compile_body(entry.template.body,
                           allow_empty_inner).fullmatch(message.strip())
        if hit is not None:
            return entry.template_id, hit.groups()
    return None


@settings(max_examples=400, deadline=None)
@given(_repository_and_messages(), st.booleans())
def test_scan_agrees_with_regex_reference(case, allow_empty_inner):
    bodies, messages = case
    repo = compile_repository([Template(body=b) for b in bodies],
                              allow_empty_inner=allow_empty_inner)
    for message in messages:
        result = match_line(repo, message)
        got = (result.template_id, result.captures) if result.matched else None
        assert got == _reference(repo, message, allow_empty_inner), (message, bodies)


# Constants may hold the wildcard token's text, which only ``from_segments``
# can build, so its rendering no longer tells the wildcards apart.
_CONSTANT = st.one_of(_TEXT, st.sampled_from(["<.*>", "x<.*>", "<.*><.*>"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(WILD), _CONSTANT), max_size=7), max_size=12),
       st.lists(st.text(alphabet="ab <.*>", max_size=10), max_size=4), st.booleans())
def test_compile_agrees_with_the_reference_compile(raws, texts, allow_empty_inner):
    bodies = dict.fromkeys([*map(TemplateBody.from_segments, raws),
                            *map(TemplateBody.parse, texts)])
    templates = [Template(body=b) for b in bodies]
    repo = compile_repository(templates, allow_empty_inner=allow_empty_inner)
    reference = compile_reference(templates, allow_empty_inner)
    assert repo.entries == reference.entries
    assert repo.leading == reference.leading
    assert repo.trailing == reference.trailing
    assert repo.floating == reference.floating
    assert repo.floating_ids == reference.floating_ids
    assert repo.needles == reference.needles


@pytest.mark.parametrize("texts, message, allow_empty_inner", [
    (["a<.*>b"], "ab", False),  # inner wildcard needs a character
    (["a<.*>b"], "ab", True),
    (["ab<.*>ba"], "aba", True),  # prefix and suffix may not overlap
    (["abc"], "abcabc", False),
    (["<.*>"], "", False),
    (["<.*>x<.*>"], "x", False),
    (["<.*> b"], "a\nc b", False),  # no capture holds a newline
    (["a\n<.*>"], "a\nb", False),  # a constant may
    (["a <.*> b <.*>"], "a x b b y b", False),  # leftmost placement
    (["a<.*>b<.*>c"], "abbxc", False),  # ... after the inner minimum
    (["<.*> b <.*> b"], "a b b b", False),
    (["x <.*>", "<.*> y", "<.*> z <.*>"], "x z y", False),
    (["x <.*>", "x y <.*>", "<.*> z"], "x y z", False),
])
def test_scan_corner_cases_agree_with_regex_reference(texts, message,
                                                      allow_empty_inner):
    repo = _repo(*texts, allow_empty_inner=allow_empty_inner)
    result = match_line(repo, message)
    got = (result.template_id, result.captures) if result.matched else None
    assert got == _reference(repo, message, allow_empty_inner)


# Two letters, so keys share prefixes and often nearly begin a text.
_EDGE = st.text(alphabet="ab", max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_EDGE, _EDGE), max_size=10),
       st.lists(st.text(alphabet="ab", max_size=5), max_size=6))
def test_index_candidates_are_the_entries_whose_key_begins_the_text(edges, texts):
    bodies = dict.fromkeys(TemplateBody.from_segments([prefix, WILD, suffix])
                           for prefix, suffix in edges)
    repo = compile_repository([Template(body=b) for b in bodies])
    for text in texts:
        leading = [e for e in repo.entries if e.prefix and text.startswith(e.prefix)]
        trailing = [e for e in repo.entries
                    if not e.prefix and e.suffix and text.endswith(e.suffix)]
        assert list(repo.leading.candidates(text)) == leading, (text, bodies)
        assert list(repo.trailing.candidates(text[::-1])) == trailing, (text, bodies)


def test_match_line_scans_only_templates_that_can_match(monkeypatch):
    repo = _repo("bind_x<.*>", "bind<.*>!", "bind<.*>:<.*>", "<.*>_a:<.*>", "bz<.*>")
    assert [e.text for e in repo.entries] == [
        "bind_x<.*>", "bind<.*>!", "bind<.*>:<.*>", "<.*>_a:<.*>", "bz<.*>"]
    scanned = []
    scan = CompiledEntry.scan

    def counting_scan(entry, message):
        scanned.append(entry.text)
        return scan(entry, message)

    monkeypatch.setattr(CompiledEntry, "scan", counting_scan)
    # near misses of "bind_x" (before and after it in key order) and of
    # both bind templates: routed
    for line in ("bind_a 1", "bind_y 1"):
        assert not match_line(repo, line).matched
        assert scanned == ["bind<.*>!", "bind<.*>:<.*>"]
        scanned.clear()
    # after "bz" in key order, but no key begins it
    assert not match_line(repo, "c 1").matched
    assert scanned == []
    # the floating template holds its needle but comes after the hit
    result = match_line(repo, "bind_a:1!")
    assert result.template == "bind<.*>!" and result.captures == ("_a:1",)
    assert scanned == ["bind<.*>!"]


def test_pathological_line_misses_in_bounded_time():
    # the lazy regex tries every placement of the three inner constants,
    # O(n^4) on this line (minutes); the scan places each once, then
    # rejects the newline in the last capture
    repo = _repo("start <.*> k1 <.*> k1 <.*> k1 <.*> end")
    line = "start" + " k1" * 533 + " \n end"
    assert len(line) > 1600
    started = time.perf_counter()
    result = match_line(repo, line)
    assert time.perf_counter() - started < 0.010
    assert not result.matched
