"""Self-time arithmetic and patch hygiene of the span recorder."""

import importlib

import pytest

from layers import ENTRY_POINTS, PROBES
from spans import EntryPoint, SpanRecorder


class FakeClock:
    """Time moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


CLOCK = FakeClock()


class Outer:
    def run(self):
        CLOCK.now += 10
        Inner().work()
        CLOCK.now += 5
        Inner().work()
        return "done"

    def recurse(self, depth):
        CLOCK.now += 3
        if depth:
            self.recurse(depth - 1)

    def fail(self):
        CLOCK.now += 4
        raise ValueError("boom")


class Inner:
    def work(self):
        CLOCK.now += 7

    def _private(self):
        pass


def helper():
    CLOCK.now += 2


ENTRIES = (
    EntryPoint("outer", __name__, "Outer"),
    EntryPoint("inner", __name__, "Inner"),
    EntryPoint("helpers", __name__, None, ("helper",)),
)


@pytest.fixture
def recorder():
    CLOCK.now = 0
    rec = SpanRecorder(clock=CLOCK)
    with rec.patched(ENTRIES):
        yield rec


def test_nested_spans_subtract_children(recorder):
    with recorder.recording():
        assert Outer().run() == "done"
    assert recorder.self_ns == {"outer": 15, "inner": 14}
    assert recorder.calls == {"Outer.run": 1, "Inner.work": 2}
    assert recorder.layer_calls() == {"outer": 1, "inner": 2}


def test_reentrant_spans_charge_each_level_once(recorder):
    with recorder.recording():
        Outer().recurse(4)
    assert recorder.self_ns == {"outer": 15}
    assert recorder.calls == {"Outer.recurse": 5}


def test_probe_time_is_charged_to_no_layer():
    CLOCK.now = 0

    def probe(args, kwargs):
        CLOCK.now += 100
        return lambda result: 1.0

    rec = SpanRecorder(clock=CLOCK)
    with rec.patched(ENTRIES, {"Inner.work": ("works", probe)}):
        with rec.recording():
            Outer().run()
    assert rec.self_ns == {"outer": 15, "inner": 14}
    assert rec.counts == {"works": 2.0}


def test_failing_span_still_closes(recorder):
    with recorder.recording():
        with pytest.raises(ValueError):
            Outer().fail()
        helper()
    assert recorder.self_ns == {"outer": 4, "helpers": 2}


def test_nothing_recorded_outside_recording(recorder):
    Outer().run()
    assert recorder.calls == {} and recorder.self_ns == {}


def test_kept_spans_become_chrome_events(recorder):
    with recorder.recording(keep_events=True):
        Outer().run()
    events = recorder.chrome_trace()["traceEvents"]
    assert [(e["name"], e["cat"], e["dur"]) for e in events] == [
        ("Inner.work", "inner", 0.007),
        ("Inner.work", "inner", 0.007),
        ("Outer.run", "outer", 0.029),
    ]


def test_unpatch_on_exception_restores_originals():
    before = dict(vars(Outer))
    rec = SpanRecorder(clock=CLOCK)
    with pytest.raises(RuntimeError):
        with rec.patched(ENTRIES):
            assert vars(Outer)["run"] is not before["run"]
            raise RuntimeError("abort the traced run")
    assert dict(vars(Outer)) == before
    assert globals()["helper"].__name__ == "helper"
    assert not hasattr(globals()["helper"], "__wrapped__")


def _snapshot():
    """Every class attribute and module global the layer table wraps."""
    import sys

    state = {}
    for ep in ENTRY_POINTS:
        module = importlib.import_module(ep.module)
        if ep.owner is None:
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name.startswith("repro") and mod is not None:
                    for name in ep.names:
                        if name in vars(mod):
                            state[(mod_name, name)] = vars(mod)[name]
        else:
            cls = getattr(module, ep.owner)
            for name, value in vars(cls).items():
                state[(ep.module, ep.owner, name)] = value
    return state


def test_patch_and_unpatch_leave_layer_attributes_identical():
    before = _snapshot()
    rec = SpanRecorder()
    with rec.patched(ENTRY_POINTS, PROBES):
        during = _snapshot()
        changed = [key for key in before if during[key] is not before[key]]
        # every layer's entry points are wrapped, nothing else is touched
        assert {rec.layer_of[k[-1] if len(k) == 2 else f"{k[1]}.{k[2]}"]
                for k in changed} == {ep.layer for ep in ENTRY_POINTS}
        assert all(not key[-1].startswith("_") for key in changed)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_patching_twice_is_refused(recorder):
    with pytest.raises(RuntimeError):
        recorder.patch(ENTRIES)
