"""Fair Byzantine agreement while under active attack.

The FBA protocol (Algorithm 3) promises two things beyond ordinary agreement:

* if every honest party proposes the same value, that value wins, no matter
  what the Byzantine parties do;
* if honest proposals diverge, the output is still some *honest* party's
  proposal with probability at least 1/2 -- the adversary cannot reliably
  force its own value through.

This example measures both claims against an adversary that (a) injects its
own value and (b) is favoured by the scheduler (its messages are delivered
first).  It also shows reliable broadcast defeating an equivocating sender.

Run with::

    python examples/fair_agreement_under_attack.py
"""

from __future__ import annotations

from collections import Counter

from repro.adversary import EquivocatingACastSender, FBAValueInjector
from repro.core import api
from repro.scenarios.schedulers import rushing

TRIALS = 15
ADVERSARY = 3
ADVERSARY_VALUE = "evil-value"


def unanimous_honest_inputs() -> None:
    """Claim 1: unanimous honest inputs always win."""
    inputs = {0: "honest-plan", 1: "honest-plan", 2: "honest-plan", 3: ADVERSARY_VALUE}
    wins = 0
    for trial in range(TRIALS):
        result = api.run_fba(
            n=4,
            inputs=inputs,
            seed=500 + trial,
            coinflip_rounds=1,
            corruptions={ADVERSARY: FBAValueInjector.factory(ADVERSARY_VALUE)},
            scheduler=rushing([ADVERSARY]),
        )
        if result.agreed_value == "honest-plan":
            wins += 1
    print("== FBA with unanimous honest inputs and a value-injecting adversary ==")
    print(f"  honest value won {wins}/{TRIALS} times (must be all of them)")
    print()


def divergent_honest_inputs() -> None:
    """Claim 2: with divergent inputs, honest values win at least half the time."""
    inputs = {0: "alpha", 1: "beta", 2: "gamma", 3: ADVERSARY_VALUE}
    winners: Counter = Counter()
    for trial in range(TRIALS):
        result = api.run_fba(
            n=4,
            inputs=inputs,
            seed=900 + trial,
            coinflip_rounds=1,
            corruptions={ADVERSARY: FBAValueInjector.factory(ADVERSARY_VALUE)},
        )
        winners[result.agreed_value] += 1
    honest_wins = sum(count for value, count in winners.items() if value != ADVERSARY_VALUE)
    print("== FBA with divergent honest inputs and a value-injecting adversary ==")
    for value, count in winners.most_common():
        print(f"  {value!r}: {count}")
    print(
        f"  honest values won {honest_wins}/{TRIALS} times "
        f"(Theorem 4.5 guarantees at least half in expectation)"
    )
    print()


def equivocating_broadcast() -> None:
    """Reliable broadcast never lets honest parties deliver different values.

    With the sender split half/half, no value can gather an ``n - t`` echo
    quorum, so the honest parties deliver *nothing* -- which is exactly what
    the Correctness property allows.  We therefore run the network to
    quiescence instead of waiting for completion.
    """
    from repro.core.config import ProtocolParams
    from repro.net.runtime import Simulation
    from repro.protocols.acast import ACast

    sim = Simulation(params=ProtocolParams.for_parties(4), seed=11)
    sim.corrupt(ADVERSARY, EquivocatingACastSender.factory(("acast",), "left", "right"))
    network = sim.build_network()
    for process in network.processes:
        if not process.is_corrupted:
            process.create_protocol(("acast",), ACast.factory(ADVERSARY)).start()
    network.run_to_quiescence()
    outputs = network.honest_outputs(("acast",))
    print("== A-Cast with an equivocating sender ==")
    print(f"  honest deliveries: {outputs or 'none (no value reached a quorum)'}")
    print("  (honest parties never deliver conflicting values)")


def main() -> None:
    unanimous_honest_inputs()
    divergent_honest_inputs()
    equivocating_broadcast()


if __name__ == "__main__":
    main()
