"""Fuzzing the scenario loader: a bundled scenario with one or two edits,
each replacing a JSON value by an ill-typed or out-of-range one or deleting
a member of an object, either loads or raises ScenarioError, which the CLI
reports with exit code 2 and no traceback. A ScenarioError names its location
once: its message never repeats its leading location. A scenario that loads
then runs its tasks, and no task may fail with an OverflowError (out-of-range
values are load errors) or a KeyError (a missing task parameter is a task
error that names the parameter). A task may still fail on its own parameters
(a TypeError for a mistyped one, a ValueError for a missing one), which the
CLI reports with exit code 1. Every report that runs is serialized in both
formats, and its machine bytes must be what the json module writes for the
same values: the fuzzed reports, error payloads included, are an oracle for
the report writer."""
from __future__ import annotations

import copy
import json
from importlib import resources

from hypothesis import given, settings, strategies as st

from relfock import ScenarioError, load_scenario, run_scenario

BUNDLED = ("bell", "product", "annihilation")

# Values of every JSON type, plus numbers the loader must range-check and a
# lone surrogate, which no UTF-8 report can hold. MAX_DIMENSION stops a huge
# max_occupation before any space is enumerated.
POOL = (None, True, False, 0, 1, -1, 1.5, "", "x", [], [1], ["a"], {}, {"a": 1}, 10**30,
        "\ud800")


def _document(name: str) -> dict:
    return json.loads((resources.files("relfock") / "scenarios" / f"{name}.json").read_bytes())


def _positions(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(name=st.sampled_from(BUNDLED), data=st.data())
def test_edited_scenario_loads_or_raises_scenario_error(tmp_path_factory, name, data):
    doc = _document(name)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        path = data.draw(st.sampled_from(list(_positions(doc))), label="position")
        node = doc
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(POOL), label="value"))
    scenario = tmp_path_factory.getbasetemp() / "fuzzed-scenario.json"
    scenario.write_text(json.dumps(doc))
    try:
        loaded = load_scenario(scenario)
    except ScenarioError as exc:
        location, _, rest = str(exc).partition(": ")
        assert not rest.startswith(location + ": "), str(exc)
        return
    report = run_scenario(loaded, seed=0)
    errors = [t.error for t in report.tasks if t.status != "ok"]
    assert not [e for e in errors if e["type"] in ("OverflowError", "KeyError")], errors
    report.to_text().encode("utf-8")
    machine = report.to_machine_bytes()
    assert machine == (json.dumps(json.loads(machine), sort_keys=True, indent=2,
                                  ensure_ascii=False) + "\n").encode("utf-8")
