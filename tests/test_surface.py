"""Guard the production surface against test-only code and unset knobs.

Two AST checks over the production tree — ``src/``, ``benchmarks/`` and
``examples/``, never ``tests/``:

* every :class:`ControllerConfig` field is passed by keyword to some
  call in it (``ControllerConfig(...)`` itself, or the ``dict(...)`` of
  overrides a harness splats into it), or is on :data:`SWEPT_FIELDS`,
  which names the test that sweeps it;
* every ``def``/``class`` in ``src/repro`` is referenced by name from
  it, or is on :data:`ALLOWED_UNREFERENCED` with a reason.

A reference is a ``Name``, an ``Attribute`` or an identifier-shaped
string constant (``getattr``/dispatch tables).  Imports and ``__all__``
entries are re-exports, not uses, so they don't count.  Matching is by
bare name: a method counts as used when any attribute of that name is
read anywhere in the production tree.

A knob only tests turn belongs in a module constant the tests
monkeypatch; a helper only tests call belongs in the tests.  Both
allowlists must stay exact — an entry that is no longer needed fails.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

from repro.core.config import ControllerConfig

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION_DIRS = ("src", "benchmarks", "examples")

#: Config fields no production code sets, each with the test sweeping it.
SWEPT_FIELDS = {
    "steering_trip_cycles": "tests/core/test_steering_properties.py",
    "steering_recover_cycles": "tests/core/test_steering_properties.py",
    "steering_yellow_recover_cycles": (
        "tests/core/test_steering_properties.py"
    ),
    "steering_votes_to_trip": "tests/core/test_steering_properties.py",
    "steering_warn_cycles": "tests/core/test_steering_properties.py",
    "full_recompute_every": "tests/core/test_scale_equivalence.py",
    # A safety rail operators arm; off (None) by default.
    "max_new_detours_per_cycle": "tests/core/test_allocator.py",
}

_CALLBACK = "called by the framework, not by name"
_ORACLE = "slow reference definition a fast path is tested against"
_WIRE_SESSION = (
    "BGP session over the wire; the study PoP establishes sessions "
    "directly, the FSM tests drive this path"
)
_EXPORTED = "exported library API, covered by unit tests; no caller yet"
_PROBE = "read-only state probe, used by tests only; no caller yet"
_PERSIST = "persistence inverse, used by round-trip tests only"

#: ``path relative to src/repro:name`` -> why it may go unreferenced.
ALLOWED_UNREFERENCED = {
    "io/frontends.py:connection_made": "asyncio.Protocol " + _CALLBACK,
    "io/frontends.py:data_received": "asyncio.Protocol " + _CALLBACK,
    "io/frontends.py:connection_lost": "asyncio.Protocol " + _CALLBACK,
    "obs/logs.py:emit": "logging.Handler " + _CALLBACK,
    "faults/stability.py:run_stability_trial": (
        "entry point of the CI steering-stability job "
        "(tests/faults/test_steering_stability.py)"
    ),
    "sflow/estimator.py:RateEstimator": _ORACLE,
    "sflow/estimator.py:window_stats": _ORACLE,
    "bgp/rib.py:effective_lookup": _ORACLE,
    "dataplane/fib.py:resolve_egress": _ORACLE,
    "bgp/speaker.py:start_session": _WIRE_SESSION,
    "bgp/speaker.py:connect_session": _WIRE_SESSION,
    "bgp/speaker.py:take_output": _WIRE_SESSION,
    "bgp/speaker.py:send_message": _WIRE_SESSION,
    "analysis/report.py:render_all": _EXPORTED,
    "bgp/communities.py:peer_type_from_communities": _EXPORTED,
    "bgp/policy.py:match_prefix_within": _EXPORTED,
    "bgp/policy.py:match_peer_type": _EXPORTED,
    "bgp/policy.py:match_community": _EXPORTED,
    "bgp/policy.py:set_med": _EXPORTED,
    "bgp/policy.py:prepend_as": _EXPORTED,
    "bgp/policy.py:apply_policies": _EXPORTED,
    "netbase/addr.py:parse_prefix": _EXPORTED,
    "netbase/addr.py:bits": _EXPORTED,
    "netbase/addr.py:network_bytes": _EXPORTED,
    "netbase/asn.py:is_private_asn": _EXPORTED,
    "netbase/asn.py:is_reserved_asn": _EXPORTED,
    "netbase/asn.py:may_export_to": _EXPORTED,
    "netbase/asn.py:inverse": _EXPORTED,
    "netbase/trie.py:covered_by": _EXPORTED,
    "netbase/units.py:surplus_over": _EXPORTED,
    "core/steering.py:state_of": _PROBE,
    "dataplane/popview.py:has_injected_routes": _PROBE,
    "dataplane/popview.py:resolve_egress": _PROBE,
    "faults/harness.py:finished": _PROBE,
    "io/queues.py:free_count": _PROBE,
    "measurement/passive.py:paths_for": _PROBE,
    "topology/entities.py:describe": _PROBE,
    "topology/internet.py:relationship": _PROBE,
    "dataplane/metrics.py:to_jsonl": _PERSIST,
    "dataplane/metrics.py:from_jsonl": _PERSIST,
    "faults/plan.py:save": _PERSIST,
    "obs/health.py:save": _PERSIST,
    "obs/timeseries.py:load_jsonl": _PERSIST,
}


def _production_trees():
    for directory in PRODUCTION_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _referenced_names():
    names = Counter()
    for _path, tree in _production_trees():
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                skipped.update(id(child) for child in ast.walk(node.value))
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                names[node.value] += 1
    return names


def _definitions():
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(package).as_posix()
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                yield f"{module}:{name}"


def _keywords_set():
    keywords = set()
    for _path, tree in _production_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                keywords.add(node.arg)
    return keywords


def test_every_config_field_is_set_outside_tests():
    fields = {field.name for field in dataclasses.fields(ControllerConfig)}
    unset = fields - _keywords_set()
    assert unset - set(SWEPT_FIELDS) == set(), (
        "ControllerConfig fields no production code sets — make each a "
        "module constant the tests monkeypatch"
    )
    assert set(SWEPT_FIELDS) <= unset, "stale SWEPT_FIELDS entries"


def test_every_definition_is_referenced_outside_tests():
    referenced = _referenced_names()
    unreferenced = {
        qualified
        for qualified in _definitions()
        if not referenced[qualified.split(":", 1)[1]]
    }
    assert sorted(unreferenced - set(ALLOWED_UNREFERENCED)) == [], (
        "definitions only tests reach — delete them or move them into "
        "tests/"
    )
    assert sorted(set(ALLOWED_UNREFERENCED) - unreferenced) == [], (
        "stale ALLOWED_UNREFERENCED entries"
    )
