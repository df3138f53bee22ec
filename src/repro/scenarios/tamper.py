"""Message tampering: honest execution with adversarially mutated channels.

The ``tamper`` fault-timeline transition corrupts a party with a
:class:`TamperBehavior`: the party keeps running its honest protocol tree,
but every *outgoing* message crossing the spec's matched channels is mutated
in flight -- field elements offset (mod the field prime), payload kinds
rewritten, or a deterministic fraction of messages dropped.  This models the
classic "faulty link / lying transport" adversary without re-implementing
any protocol logic, and it composes with the rest of the scenario plane:
tampering *is* a corruption (it spends budget and excludes the party from
honest-output accounting), and every installation is logged to the
director's audit trail and the trace.

Tamper specs are validated by :func:`repro.scenarios.spec.validate_tamper`,
each value by its field in :data:`~repro.scenarios.spec.TAMPER_FIELDS` (the
registry row walks the same closed table); the channel-matching half reuses
the scenario predicate vocabulary.  All mutations are pure functions of the
message stream (the drop fraction uses a Bresenham-style counter, never
randomness), so tampered trials remain byte-identical per seed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.adversary.behaviors import Behavior
from repro.net.message import SessionId
from repro.scenarios.predicates import match_session, resolve_parties
from repro.scenarios.spec import TAMPER_FIELDS, require_tamper_mutation


def _offset_element(value: Any, offset: int, prime: int) -> Any:
    """Offset one payload element: ints shift mod prime, everything else passes.

    Tuples are rewritten one level deep (SVSS row payloads are tuples of
    field elements); bools are left alone -- they are protocol flags, not
    field elements, even though they subclass int.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return (value + offset) % prime
    if isinstance(value, tuple):
        return tuple(
            (item + offset) % prime
            if isinstance(item, int) and not isinstance(item, bool)
            else item
            for item in value
        )
    return value


class TamperBehavior(Behavior):
    """Runs the honest protocol; mutates outgoing messages on matched channels.

    Construction takes a validated tamper spec (see module docstring).  The
    delivery side is the honest route: the class does not override
    ``on_message``, so the process installs no delivery hook (the
    :class:`~repro.adversary.behaviors.HonestButMutatingBehavior` pattern).
    The sending side installs an outgoing mutator compiled from the spec,
    declaring the spec's ``kinds``, so a send of any other kind never
    reaches it.
    """

    runs_honest_protocol = True

    def __init__(self, spec: Mapping[str, Any]) -> None:
        super().__init__()
        self.spec: Dict[str, Any] = dict(spec)
        #: Messages that matched the channel filter.
        self.matched = 0
        #: Matched messages dropped by the drop fraction.
        self.dropped = 0
        #: Matched messages forwarded with a payload mutation applied.
        self.mutated = 0

    def on_attach(self) -> None:
        assert self.process is not None
        self.process.set_outgoing_mutator(self._build_mutator(), self.spec.get("kinds"))

    # ------------------------------------------------------------------
    def _build_mutator(
        self,
    ) -> Callable[[int, SessionId, tuple], Optional[Tuple[int, SessionId, tuple]]]:
        assert self.process is not None
        params = self.process.params
        prime = params.prime
        spec = self.spec
        receivers = (
            frozenset(resolve_parties(spec["receivers"], params.n))
            if "receivers" in spec
            else None
        )
        pattern = list(spec["session"]) if "session" in spec else None
        offset = int(spec.get("offset", 0))
        rewrite_kind = spec.get("rewrite_kind")
        fraction = float(spec.get("drop_fraction", 0.0))

        def mutate(
            receiver: int, session: SessionId, payload: tuple
        ) -> Optional[Tuple[int, SessionId, tuple]]:
            if receivers is not None and receiver not in receivers:
                return (receiver, session, payload)
            if pattern is not None and match_session(pattern, session) is None:
                return (receiver, session, payload)
            self.matched += 1
            if fraction:
                # Deterministic thinning: drop exactly floor(matched *
                # fraction) of the matched stream, Bresenham-style, so the
                # same seed tampers the same messages on every rerun.
                if int(self.matched * fraction + 1e-9) > self.dropped:
                    self.dropped += 1
                    return None
            if rewrite_kind is not None and payload:
                payload = (rewrite_kind,) + tuple(payload[1:])
            if offset:
                payload = (payload[0],) + tuple(
                    _offset_element(value, offset, prime) for value in payload[1:]
                )
            self.mutated += 1
            return (receiver, session, payload)

        return mutate


def tamper_behavior(**spec: Any) -> Callable[..., TamperBehavior]:
    """Registry builder: ``BehaviorSpec("tamper", {...tamper spec...})``.

    The row's closed :data:`TAMPER_FIELDS` table has checked each value.
    """
    require_tamper_mutation(spec)

    def build(_process: Any) -> TamperBehavior:
        return TamperBehavior(spec)

    return build


# Registered here (not in repro.experiments.registry) so the behaviour rides
# the same self-registration pattern as the hostile scheduler family.
from repro.experiments.registry import BEHAVIORS  # noqa: E402

BEHAVIORS.add("tamper", tamper_behavior, fields=TAMPER_FIELDS, closed=True)
