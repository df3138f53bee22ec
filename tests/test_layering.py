"""Structure pins: what ``src/repro`` imports and what one run can be told.

``setup.py`` packages ``src/`` only, so an import of ``benchmarks``, ``tests``
or ``examples`` -- at module level or inside a function -- works from the
repo root and nowhere else.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.core import api
from repro.core.config import ProtocolParams
from repro.net.network import Network
from repro.net.runtime import Simulation
from repro.net.scheduler import DelayScheduler, TargetedScheduler

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OUTSIDE = {"benchmarks", "tests", "examples"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_nothing_outside_itself():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {root}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, root in _imported_roots(ast.parse(path.read_text()))
        if root in OUTSIDE
    ]
    assert offenders == []


def test_only_the_pool_imports_multiprocessing():
    """Spawning, deadlines, SIGKILL-and-replace, retries and teardown live in
    one module for the campaign and the beacon alike; a supervision feature
    that imports ``multiprocessing`` elsewhere is growing a second pool."""
    importers = {
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for _, root in _imported_roots(ast.parse(path.read_text()))
        if root == "multiprocessing"
    }
    assert importers == {"experiments/pool.py"}


def test_crypto_is_one_module():
    """GF(p) algebra is plain-int functions in ``crypto/kernels.py``; a field,
    polynomial or sharing object layer around them is a second implementation
    that only tests would call."""
    crypto = SRC / "crypto"
    assert sorted(str(p.relative_to(crypto)) for p in crypto.rglob("*.py")) == [
        "__init__.py",
        "kernels.py",
    ]
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC.parent)}:{node.lineno} imports {module}"
                for module in modules
                if module.startswith("repro.crypto.") and module != "repro.crypto.kernels"
                # ``from repro.crypto.kernels import X`` names X inside kernels.
                and not module.startswith("repro.crypto.kernels.")
            ]
    assert offenders == []


def test_one_in_flight_shape():
    """A lone send is the one-copy fan-out of itself: every queue slot,
    pending buffer, delivery and send record in ``net/`` is ``(entry,
    receiver)`` with ``receiver >= 0``.  A sentinel receiver, a slot-type
    test, a per-message push or a per-message send hook is a second shape."""
    forbidden = ("receiver < 0", "__class__ is tuple", "def push(self, message", "on_send")
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}: {pattern}"
        for path in sorted((SRC / "net").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for pattern in forbidden
        if pattern in line
    ]
    assert offenders == []


def test_protocols_have_one_send_path():
    """A corrupted sender's fan-out is one fan-out: protocols send through
    ``Process.send_fanout`` / ``Process.send``, which apply the outgoing
    mutator, so no protocol forks on it into a per-receiver loop."""
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in (SRC / "net" / "protocol.py", SRC / "protocols" / "svss.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "outgoing_mutator"
    ]
    assert offenders == []


def test_one_message_counter():
    """The trace counts every metered run, traced or trace-free: a second
    counter beside it (a meter module, ``Network.meter``) is a second
    implementation of ``message_stats`` that every send, drop and shun site
    would have to choose between."""
    counters = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "messages_sent +=" in line
    ]
    assert [c.split(":")[0] for c in counters] == ["repro/net/tracing.py"], counters
    assert not (SRC / "obs" / "meter.py").exists()
    network = Network(ProtocolParams.for_parties(4), tracing=False)
    assert not hasattr(network, "meter")


def test_only_corrupt_and_reinitialize_set_a_behavior():
    """A party's behaviour is installed by ``Process.corrupt`` and dropped by
    ``Process.reinitialize``, and nothing swaps it in between: a behaviour
    that runs the honest protocol for a delivery hands it to the honest
    route, so the party reads as corrupted throughout its own deliveries."""
    setters = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute) and leaf.attr == "behavior":
                            setters.add(
                                (str(path.relative_to(SRC)), ast.unparse(leaf), function.name)
                            )
    assert setters == {
        ("net/process.py", "self.behavior", "__init__"),
        ("net/process.py", "self.behavior", "corrupt"),
        ("net/process.py", "self.behavior", "reinitialize"),
    }


def test_run_surface():
    """Every settable value of one run, as a literal list.

    A new ``Simulation`` field, ``Network`` parameter or keyword shared by the
    ``api.run_*`` runners is one more configuration the goldens, the loop
    matrix and the ledger would have to cover: adding one is a deliberate
    edit of this list, not a side effect.  The world is declared once, by
    ``api._simulation``: every runner names only its protocol's params and
    hands the rest on as ``**world``.  How the engine queues a fan-out,
    evaluates a row or schedules the collector is chosen from observable
    state and is nowhere on it.
    """
    assert [f.name for f in dataclasses.fields(Simulation)] == [
        "params",
        "scheduler",
        "seed",
        "keep_events",
        "tracing",
        "max_steps",
        "director",
        "session_table",
        "metering",
        "metrics",
        "sinks",
        "_corruptions",  # state, filled by corrupt()
        "network",  # state, built by build_network()
    ]
    assert list(inspect.signature(Network.__init__).parameters)[1:] == [
        "params",
        "scheduler",
        "seed",
        "keep_events",
        "tracing",
        "session_table",
        "metering",
        "metrics",
        "sinks",
    ]
    world = list(inspect.signature(api._simulation).parameters)
    assert world == [
        "n",
        "seed",
        "scheduler",
        "corruptions",
        "tracing",
        "prime",
        "director",
        "session_table",
        "metering",
        "metrics",
        "sinks",
    ]
    runners = {
        name: list(inspect.signature(runner).parameters.values())
        for name, runner in vars(api).items()
        if name.startswith("run_") and name != "run_many"
    }
    assert len(runners) == 8
    for name, parameters in runners.items():
        *named, rest = parameters
        assert rest.kind is rest.VAR_KEYWORD and rest.name == "world", name
        assert [p.name for p in named if p.name in world] == ["n", "seed"], name
    source = inspect.getsource(api)
    assert source.count("Simulation(") == 1
    assert source.count("_simulation(") == 1 + len(runners)  # its def, one call each


def test_one_starving_scheduler():
    """Delivery order is one lever with one vocabulary.  A partition that
    heals is a ``DelayScheduler`` over the crossing filter, a priority that
    must be re-read every step is ``force_scan(TargetedScheduler(...))``, and
    the legacy names are registry rows over their targets: a ``Scheduler``
    class beside these six, or a knob on one of them, is a second
    implementation of a policy the others already express."""
    bases = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                    for base in node.bases
                }
    schedulers = {"Scheduler"}
    while True:
        grown = schedulers | {name for name, of in bases.items() if of & schedulers}
        if grown == schedulers:
            break
        schedulers = grown
    assert schedulers - {"Scheduler"} == {
        "FIFOScheduler",
        "RandomScheduler",
        "DelayScheduler",
        "TargetedScheduler",
        "ForceScanScheduler",
        "ReactiveScheduler",
    }
    assert list(inspect.signature(DelayScheduler).parameters) == [
        "should_delay",
        "max_delay_steps",
    ]
    assert list(inspect.signature(TargetedScheduler).parameters) == ["priority"]
