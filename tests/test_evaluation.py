from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from logsmith.evaluation import (
    GroundTruthError,
    canonical,
    load_ground_truth,
    score,
    time_online,
)
from logsmith.blackbox import ClusterTree
from logsmith.matcher import compile_repository
from logsmith.templates import WILD, Template, TemplateBody
from oracle import templates_equal


def _bodies(*texts: str) -> list[TemplateBody]:
    return [TemplateBody.parse(t) for t in texts]


def _truth(*texts: str) -> tuple[TemplateBody, ...]:
    return tuple(_bodies(*texts))


def test_equal_templates():
    assert templates_equal(*_bodies("a <.*> b", "a <.*> b"))
    assert templates_equal(*_bodies("exact text", "exact text"))


def test_unequal_templates():
    assert not templates_equal(*_bodies("a <.*> b", "a <.*> c"))
    assert not templates_equal(*_bodies("a <.*> b", "a <.*>b"))
    assert not templates_equal(*_bodies("a <.*>", "a"))
    assert not templates_equal(*_bodies("read <.*>", "<.*> read"))


# Whitespace by str.isspace (ASCII, U+0085, U+3000, the U+001C-U+001F
# separators), empty-looking text that is not whitespace (U+200B, U+FEFF),
# and other non-ASCII constants.
_CONSTANTS = st.text(alphabet=" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000"
                              "\u200b\ufeffa\xe9\u4e2d\U0001f600", max_size=4)


@given(st.lists(st.one_of(_CONSTANTS, st.just(WILD)), max_size=12))
def test_canonical_agrees_with_the_reference_walk(raw):
    body = TemplateBody.from_segments(raw)
    assert canonical(body) == oracle.canonical(body)


def test_canonical_returns_a_body_with_nothing_to_collapse_itself():
    for text in ("a <.*> b", " <.*>x<.*> ", "<.*> \u200b <.*>", "", "<.*>"):
        body = TemplateBody.parse(text)
        assert canonical(body) is body


def test_adjacent_wildcards_with_whitespace_collapse():
    assert templates_equal(*_bodies("a <.*> <.*> b", "a <.*> b"))
    assert templates_equal(*_bodies("a <.*> <.*> <.*> b", "a <.*> b"))
    # non-whitespace separators stay significant
    assert not templates_equal(*_bodies("a <.*>,<.*> b", "a <.*> b"))


def test_equality_is_an_equivalence_relation():
    rng = random.Random(20240823)
    pool = []
    pieces = ("read", " ", "<.*>", "x_", "9", "  ")
    for _ in range(60):
        pool.append(TemplateBody.parse(
            "".join(rng.choice(pieces) for _ in range(rng.randint(1, 7)))))
    for a in pool:
        assert templates_equal(a, a)
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert templates_equal(a, b) == templates_equal(b, a)
        if templates_equal(a, b) and templates_equal(b, c):
            assert templates_equal(a, c)


SCORING_CORPORA = [
    # (parsed, truth, precision, recall)
    (["a <.*>", "b <.*>"], ["a <.*>", "b <.*>"], 1.0, 1.0),
    (["a <.*>"], ["a <.*>", "b <.*>"], 1.0, 0.5),
    (["a <.*>", "wrong"], ["a <.*>", "b <.*>"], 0.5, 0.5),
    (["x", "y", "z"], ["x", "y", "z"], 1.0, 1.0),
    ([], ["a"], 0.0, 0.0),
    (["a"], [], 0.0, 0.0),
    (["a", "a"], ["a"], 0.5, 1.0),  # duplicate parsed pairs only once
    (["a"], ["a", "a"], 1.0, 0.5),  # duplicate truth needs two hits
    (["m <.*> <.*> n"], ["m <.*> n"], 1.0, 1.0),  # equality collapse applies
    (["p <.*>", "q <.*>", "r <.*>", "s"], ["p <.*>", "q <.*>", "zz"], 0.5, 2 / 3),
    (["one", "two", "three", "four", "five", "six", "seven", "eight", "nine"],
     ["one", "two", "three", "four", "five", "six", "seven", "eight", "nine"],
     1.0, 1.0),
]


@pytest.mark.parametrize("parsed,truth,precision,recall", SCORING_CORPORA)
def test_scoring_corpora(parsed, truth, precision, recall):
    report = score(_bodies(*parsed), _truth(*truth))
    assert report.precision == pytest.approx(precision, abs=1e-9)
    assert report.recall == pytest.approx(recall, abs=1e-9)
    if precision + recall > 0:
        expected_f1 = 2 * precision * recall / (precision + recall)
    else:
        expected_f1 = 0.0
    assert report.f1 == pytest.approx(expected_f1, abs=1e-9)


def test_perfect_nine_of_nine_is_exactly_one():
    texts = [f"stage {i} <.*> done" for i in range(9)]
    report = score(_bodies(*texts), _truth(*texts))
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0
    assert len(report.matched_pairs) == 9


def test_score_is_permutation_invariant():
    rng = random.Random(5)
    parsed = [f"p{i} <.*>" for i in range(8)] + ["only parsed"]
    truth = [f"p{i} <.*>" for i in range(8)] + ["only truth"]
    base = score(_bodies(*parsed), _truth(*truth))
    for _ in range(20):
        shuffled_parsed = parsed[:]
        shuffled_truth = truth[:]
        rng.shuffle(shuffled_parsed)
        rng.shuffle(shuffled_truth)
        report = score(_bodies(*shuffled_parsed), _truth(*shuffled_truth))
        assert report.precision == pytest.approx(base.precision)
        assert report.recall == pytest.approx(base.recall)
        assert report.f1 == pytest.approx(base.f1)


def test_metric_bounds_on_random_corpora():
    rng = random.Random(11)
    vocabulary = [f"w{i} <.*>" for i in range(6)] + ["fixed line", "other <.*> x"]
    for _ in range(200):
        parsed = [rng.choice(vocabulary) for _ in range(rng.randint(0, 6))]
        truth = [rng.choice(vocabulary) for _ in range(rng.randint(0, 6))]
        report = score(_bodies(*parsed), _truth(*truth))
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.f1 <= 1.0
        low = min(report.precision, report.recall)
        high = max(report.precision, report.recall)
        # harmonic mean lies between P and R up to float rounding
        assert low - 1e-12 <= report.f1 <= high + 1e-12
        assert len(report.matched_pairs) <= min(len(parsed), len(truth))


def test_matched_pairs_are_one_to_one():
    report = score(_bodies("a", "a", "b"), _truth("a", "b", "b"))
    parsed_side = [p for p, _ in report.matched_pairs]
    truth_side = [t for _, t in report.matched_pairs]
    assert len(set(parsed_side)) == len(parsed_side)
    assert len(set(truth_side)) == len(truth_side)
    assert len(report.matched_pairs) == 2


def _nested_loop_pairs(parsed, truth):
    """Reference: each parsed template scans the unpaired truth in order."""
    unmatched = list(range(len(truth)))
    pairs = []
    for parsed_index, body in enumerate(parsed):
        for position, truth_index in enumerate(unmatched):
            if templates_equal(body, truth[truth_index]):
                pairs.append((parsed_index, truth_index))
                del unmatched[position]
                break
    return pairs


def test_score_agrees_with_nested_loop_reference():
    rng = random.Random(23)
    # duplicates, and wildcard runs that collapse to one slot
    vocabulary = ["a <.*> b", "a <.*> <.*> b", "a <.*> <.*> <.*> b", "a <.*>,<.*> b",
                  "<.*> x", "<.*>  <.*> x", "x", "y <.*>"]
    for _ in range(300):
        parsed = _bodies(*(rng.choice(vocabulary) for _ in range(rng.randint(0, 8))))
        truth = _truth(*(rng.choice(vocabulary) for _ in range(rng.randint(0, 8))))
        report = score(parsed, truth)
        pairs = _nested_loop_pairs(parsed, truth)
        assert report.matched_pairs == pairs
        precision = len(pairs) / len(parsed) if parsed else 0.0
        recall = len(pairs) / len(truth) if truth else 0.0
        assert (report.precision, report.recall) == (precision, recall)


def test_load_ground_truth(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("connect <.*> failed\n\nqueue empty\n", encoding="utf-8")
    truth = load_ground_truth(path)
    assert [b.render() for b in truth] == ["connect <.*> failed",
                                                     "queue empty"]


def test_load_ground_truth_rejects_unnormalized(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("fine line\na <.*><.*> b\n", encoding="utf-8")
    with pytest.raises(GroundTruthError) as error:
        load_ground_truth(path)
    assert "line 2" in str(error.value)


def test_load_ground_truth_error_names_first_line(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("<.*><.*> boot\nfine line\n", encoding="utf-8")
    with pytest.raises(GroundTruthError) as error:
        load_ground_truth(path)
    assert "line 1" in str(error.value)


def test_load_ground_truth_keeps_edge_whitespace_stable(tmp_path):
    # a trailing space renders back identically, so the line is legal
    path = tmp_path / "truth.txt"
    path.write_text("padded line \n", encoding="utf-8")
    truth = load_ground_truth(path)
    assert truth[0].render() == "padded line "


def _timing_repo(count: int = 20):
    templates = [Template(body=TemplateBody.parse(f"stage {i} <.*> done"))
                 for i in range(count)]
    return compile_repository(templates)


def test_time_online_zero_lines_is_fast():
    assert time_online(_timing_repo(), [], repetitions=3) < 0.01


def test_time_online_scales_roughly_linearly():
    repo = _timing_repo()
    lines = [f"stage {i % 20} payload done\n" for i in range(400)]
    # the least of several readings per size: one reading alone swings with
    # whatever else the machine runs, and left the ratio outside the window
    single = min(time_online(repo, lines, repetitions=5) for _ in range(5))
    double = min(time_online(repo, lines * 2, repetitions=5) for _ in range(5))
    assert single > 0.0
    # allow generous slack: the point is growth, not a precise constant
    assert double < single * 8
    assert double > single * 0.8


def test_time_online_validates_repetitions():
    with pytest.raises(ValueError):
        time_online(_timing_repo(), [], repetitions=0)


def test_time_online_excludes_compilation():
    # the same compiled repository is reused; only matching time is returned
    repo = _timing_repo(5)
    lines = ["stage 1 xx done\n"] * 50
    first = time_online(repo, lines, repetitions=3)
    second = time_online(repo, lines, repetitions=3)
    assert first < 0.5 and second < 0.5


def test_time_online_strips_the_header():
    repo = _timing_repo(5)
    lines = [f"2024-03-01 12:00:0{i} INFO stage {i} x done\n" for i in range(5)]
    trees = []

    def recording_tree():
        trees.append(ClusterTree())
        return trees[-1]

    time_online(repo, lines, repetitions=2, tree_factory=recording_tree,
                header_pattern=r"^\S+ \S+ \w+ ")
    assert len(trees) == 2 and not any(tree.clusters for tree in trees)
    # without the header pattern every line misses and is clustered
    time_online(repo, lines, repetitions=1, tree_factory=recording_tree)
    assert trees[-1].clusters
