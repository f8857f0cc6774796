"""Unit and property tests for the regex engine substrate and workload."""

import re as pyre

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.regex import (
    CompiledRegex,
    RegexSyntaxError,
    RegexWorkloadSpec,
    generate_regex_program,
)


class TestEngineCorrectness:
    @pytest.mark.parametrize(
        "pattern,subject,expected",
        [
            ("abc", b"abc", True),
            ("abc", b"xxabcxx", True),
            ("abc", b"abd", False),
            ("a.c", b"axc", True),
            ("a.c", b"ac", False),
            ("ab*c", b"ac", True),
            ("ab*c", b"abbbbc", True),
            ("ab+c", b"ac", False),
            ("ab+c", b"abc", True),
            ("ab?c", b"abc", True),
            ("ab?c", b"abbc", False),
            ("(ab|cd)ef", b"cdef", True),
            ("(ab|cd)ef", b"adef", False),
            ("(ab|cd)*ef", b"ef", True),
            ("(ab|cd)*ef", b"abcdabef", True),
            ("[a-c]x", b"bx", True),
            ("[a-c]x", b"dx", False),
            ("[^a-c]x", b"dx", True),
            ("[^a-c]x", b"ax", False),
            ("a\\*b", b"a*b", True),
            ("a\\*b", b"aab", False),
        ],
    )
    def test_hand_cases(self, pattern, subject, expected):
        matched, _work, _consumed = CompiledRegex(pattern).search(subject)
        assert matched == expected

    @settings(max_examples=150, deadline=None)
    @given(
        pattern=st.sampled_from(
            [
                "abc",
                "a[b-d]+e",
                "(ab|cd)*ef",
                "a.c",
                "x[^ab]y",
                "ab?c+d*",
                "(a|b)(c|d)",
                "a(bc)+d",
            ]
        ),
        subject=st.binary(min_size=0, max_size=24).map(
            lambda raw: bytes(97 + (b % 8) for b in raw)  # a..h alphabet
        ),
    )
    def test_matches_python_re(self, pattern, subject):
        ours, _w, _c = CompiledRegex(pattern).search(subject)
        theirs = pyre.search(pattern.encode(), subject) is not None
        assert ours == theirs

    def test_consumed_semantics(self):
        compiled = CompiledRegex("bc")
        matched, _work, consumed = compiled.search(b"abcdef")
        assert matched
        assert consumed == 3  # stops right after the match completes
        matched, _work, consumed = compiled.search(b"aaaaaa")
        assert not matched
        assert consumed == 6

    def test_work_scales_with_subject(self):
        compiled = CompiledRegex("a[b-d]+e")
        _m, short_work, _c = compiled.search(b"x" * 10)
        _m, long_work, _c = compiled.search(b"x" * 100)
        assert long_work > short_work

    def test_empty_alternative(self):
        matched, _w, _c = CompiledRegex("a(b|)c").search(b"ac")
        assert matched

    def test_num_states_positive(self):
        assert CompiledRegex("(ab|cd)+e?").num_states > 5


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "pattern",
        ["(ab", "ab)", "[ab", "*a", "+a", "?a", "a(", "a\\", "[]", "[z-a]"],
    )
    def test_rejected(self, pattern):
        with pytest.raises(RegexSyntaxError):
            CompiledRegex(pattern)


class TestRegexWorkload:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegexWorkloadSpec(matches=0)
        with pytest.raises(ValueError):
            RegexWorkloadSpec(subject_length=0)
        with pytest.raises(ValueError):
            RegexWorkloadSpec(match_fraction=2.0)
        with pytest.raises(ValueError):
            RegexWorkloadSpec(alphabet=b"")

    def test_program_structure(self):
        program = generate_regex_program(RegexWorkloadSpec(matches=30))
        assert program.num_invocations == 30
        for region in program.regions:
            assert region.descriptor.name == "regex-match"
            assert region.descriptor.replaced_instructions == region.length
            assert region.descriptor.reads

    def test_match_rate_tracks_fraction(self):
        none = generate_regex_program(
            RegexWorkloadSpec(matches=40, match_fraction=0.0, seed=3)
        )
        most = generate_regex_program(
            RegexWorkloadSpec(matches=40, match_fraction=1.0, seed=3)
        )
        assert (
            most.baseline.metadata["match_rate"]
            > none.baseline.metadata["match_rate"]
        )

    def test_granularity_in_figure2_band(self):
        # Fig. 2 places regex acceleration in the hundreds-to-thousands
        # of instructions band, coarser than the heap manager.
        from repro.workloads.heap import heap_granularity

        program = generate_regex_program(RegexWorkloadSpec(matches=40))
        assert program.mean_granularity > heap_granularity()

    def test_matched_subjects_consume_fewer_bytes(self):
        program = generate_regex_program(
            RegexWorkloadSpec(matches=60, match_fraction=0.5, seed=9)
        )
        read_bytes = [r.descriptor.read_bytes for r in program.regions]
        assert min(read_bytes) < max(read_bytes)  # early exits happen

    def test_deterministic(self):
        spec = RegexWorkloadSpec(matches=20, seed=5)
        a = generate_regex_program(spec)
        b = generate_regex_program(spec)
        assert a.baseline.instructions == b.baseline.instructions


def stepwise_search(regex: CompiledRegex, subject: bytes) -> tuple[bool, int, int]:
    """The NFA simulation one byte at a time, with no memo: the oracle
    for :meth:`CompiledRegex.search`, which memoizes each (active set,
    byte) step."""
    start = regex._closure({regex._start})
    active = set(start)
    work = 0
    if regex._accept in active:
        return True, 0, 0
    for index, byte in enumerate(subject):
        active = active | regex._closure({regex._start})
        work += len(active)
        advanced: set[int] = set()
        for state_id in active:
            state = regex._states[state_id]
            if state.char_class is not None and byte in state.char_class:
                advanced.update(state.out)
        active = regex._closure(advanced)
        if regex._accept in active:
            return True, work, index + 1
    return False, work, len(subject)


@st.composite
def _patterns(draw, depth=0):
    """Random patterns over the engine's whole syntax, on a small alphabet."""
    atoms = [
        st.sampled_from(list("abc.")),
        st.sampled_from(["[ab]", "[a-c]", "[^a]", "[^bc]", "\\*"]),
    ]
    if depth < 2:
        atoms.append(_patterns(depth + 1).map(lambda inner: f"({inner})"))
    pieces = draw(
        st.lists(
            st.tuples(st.one_of(atoms), st.sampled_from(["", "", "*", "+", "?"])),
            min_size=0,
            max_size=4,
        )
    )
    pattern = "".join(atom + quantifier for atom, quantifier in pieces)
    if depth < 2 and draw(st.booleans()):
        pattern += "|" + draw(_patterns(depth + 1))
    return pattern


class TestMemoizedSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        pattern=_patterns(),
        subjects=st.lists(st.binary(max_size=40).map(
            lambda raw: bytes(b"abcd*"[byte % 5] for byte in raw)
        ), min_size=1, max_size=6),
    )
    def test_search_equals_the_stepwise_oracle(self, pattern, subjects):
        # One compiled regex serves every subject, so later searches run
        # on steps memoized by earlier ones.
        regex = CompiledRegex(pattern)
        for subject in subjects:
            assert regex.search(subject) == stepwise_search(regex, subject)

    def test_memo_is_bounded(self, monkeypatch):
        from repro.workloads import regex as module

        monkeypatch.setattr(module, "_DFA_LIMIT", 2)
        compiled = CompiledRegex("(a|b)*c(a|b)*d")
        subjects = [b"abcabd", b"cccd", b"bbbbbbbbcad", b"acbd"]
        for subject in subjects * 3:
            assert compiled.search(subject) == stepwise_search(compiled, subject)
            assert len(compiled._dfa) <= 2 + len(subject) + 1
