"""Tests for the scenario predicate language (selectors, patterns, filters)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.net.message import Message
from repro.scenarios.predicates import (
    compile_message_predicate,
    match_session,
    resolve_parties,
    validate_party_selector,
    validate_session_pattern,
)


class TestPartySelectors:
    def test_explicit_forms(self):
        assert resolve_parties(3, 8) == [3]
        assert resolve_parties([5, 1, 1], 8) == [1, 5]
        assert resolve_parties({"pids": [0, 7]}, 8) == [0, 7]

    def test_first_last(self):
        assert resolve_parties({"first": 3}, 8) == [0, 1, 2]
        assert resolve_parties({"last": 2}, 8) == [6, 7]
        # Clamped at n rather than failing.
        assert resolve_parties({"first": 99}, 4) == [0, 1, 2, 3]

    def test_halves(self):
        assert resolve_parties({"half": "low"}, 7) == [0, 1, 2]
        assert resolve_parties({"half": "high"}, 7) == [3, 4, 5, 6]

    def test_stride(self):
        assert resolve_parties({"every": 2}, 6) == [0, 2, 4]
        assert resolve_parties({"every": 3, "offset": 1}, 7) == [1, 4]

    def test_last_faulty_scales_with_n(self):
        assert resolve_parties({"last_faulty": True}, 4) == [3]
        assert resolve_parties({"last_faulty": True}, 16) == [11, 12, 13, 14, 15]

    def test_out_of_range_and_unknown_forms_raise(self):
        with pytest.raises(ExperimentError):
            resolve_parties(9, 4)
        with pytest.raises(ExperimentError):
            resolve_parties({"wat": 1}, 4)
        with pytest.raises(ExperimentError):
            resolve_parties(True, 4)  # bools are not pids
        with pytest.raises(ExperimentError):
            resolve_parties({"half": "middle"}, 4)

    @pytest.mark.parametrize(
        "selector",
        [[True], [1.5], [0, "1"], [None], {"pids": [True]}, {"pids": [1.5]}, {"pids": 2}],
    )
    def test_explicit_pids_must_be_ints(self, selector):
        """``int()`` would read ``true`` as party 1 and truncate ``1.5`` to it."""
        with pytest.raises(ExperimentError, match="party selector"):
            resolve_parties(selector, 4)
        with pytest.raises(ExperimentError, match="party selector"):
            validate_party_selector(selector)

    def test_shape_validation_without_n(self):
        for selector in (
            0, [0, 5], {"pids": [3]}, {"first": 2}, {"last": 99}, {"half": "high"},
            {"every": 2, "offset": 1}, {"last_faulty": True}, 10**9,
        ):
            validate_party_selector(selector)
        for malformed in (
            "everyone", True, -1, [0, -2], {"pids": [-1]}, {"every": 0},
            {"half": "middle"}, {"wat": 1}, {"last_faulty": False},
        ):
            with pytest.raises(ExperimentError):
                validate_party_selector(malformed)

    def test_validating_the_library_allocates_next_to_nothing(self):
        # Validation is symbolic: it used to resolve every selector against a
        # million-party system (40 MB transient, a second per import).
        import tracemalloc

        from repro.scenarios.library import SCENARIOS

        tracemalloc.start()
        try:
            for spec in SCENARIOS.values():
                spec.validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSessionPatterns:
    def test_exact_match_and_wildcards(self):
        assert match_session(["weak_coin"], ("weak_coin",)) == {}
        assert match_session(["weak_coin", "*", 3], ("weak_coin", "share", 3)) == {}
        assert match_session(["weak_coin", "rec"], ("weak_coin", "share")) is None
        assert match_session(["a"], ("a", "b")) is None  # length must match

    def test_pid_capture(self):
        captures = match_session(
            ["weak_coin", "share", {"pid": True}], ("weak_coin", "share", 2)
        )
        assert captures == {"pid": 2}
        # A non-int in the captured slot is not a pid.
        assert match_session(["x", {"pid": True}], ("x", "share")) is None
        assert match_session(["x", {"pid": True}], ("x", True)) is None

    def test_ellipsis_matches_any_prefix(self):
        pattern = ["...", "rec", {"pid": True}]
        assert match_session(pattern, ("weak_coin", "rec", 5)) == {"pid": 5}
        assert match_session(pattern, ("coinflip", "deep", "rec", 1)) == {"pid": 1}
        assert match_session(pattern, ("rec",)) is None  # too short

    def test_pattern_validation(self):
        validate_session_pattern(["...", "share", {"pid": True}])
        with pytest.raises(ExperimentError):
            validate_session_pattern([])
        with pytest.raises(ExperimentError):
            validate_session_pattern(["a", "...", "b"])  # ellipsis must lead
        with pytest.raises(ExperimentError):
            validate_session_pattern([{"unknown": 1}])


class TestMessagePredicates:
    def _msg(self, sender=0, receiver=1, session=("weak_coin", "share", 2), kind="ROW"):
        return Message(sender, receiver, session, (kind, 7), seq=0)

    def test_conjunctive_filters(self):
        predicate = compile_message_predicate(
            {"senders": {"first": 2}, "kinds": ["ROW"]}, n=4
        )
        assert predicate(self._msg(sender=1))
        assert not predicate(self._msg(sender=3))
        assert not predicate(self._msg(sender=1, kind="ECHO"))

    def test_session_and_root_filters(self):
        predicate = compile_message_predicate(
            {"roots": ["weak_coin"], "session": ["...", "share", {"pid": True}]}, n=4
        )
        assert predicate(self._msg())
        assert not predicate(self._msg(session=("weak_coin", "rec", 2)))

    def test_empty_spec_matches_everything(self):
        assert compile_message_predicate({}, n=4)(self._msg())

    def test_unknown_keys_raise(self):
        with pytest.raises(ExperimentError):
            compile_message_predicate({"sender": 0}, n=4)
