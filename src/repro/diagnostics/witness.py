"""Race witness: dynamic validation of the declared ownership contracts.

daisylint's DL100-series rules prove *statically* that every mutation of
annotated engine state happens inside a declared seam.  This module is the
*dynamic* counterpart: when activated it instruments every class in
:data:`repro._ownership.OWNERSHIP_REGISTRY` — wrapping ``__setattr__`` /
``__delattr__``, the construction methods, and the declared mutating
accessors — and records every attribute write as a
``(class, attr, site, thread, phase)`` event.  An event *contradicts*
the declared ownership when:

* ``shared_engine_state`` — a post-construction write lands outside the
  attribute's ``MUTATED_UNDER`` seam (checked with the same
  :func:`repro._ownership.site_allowed` suffix matching the static rules
  compile, so the two layers cannot drift), or
* ``immutable_after_init`` — any write lands after construction, or
* ``session_owned`` — post-construction writes to one instance arrive
  from more than one thread (the confinement claim is exactly
  "single writing thread").

The witness observes what the interpreter lets it observe: rebinding
writes and declared-accessor aliases.  In-place container mutation
through a plain attribute read (``self.cells.add(x)``) raises no
``__setattr__`` and is invisible here, exactly as it is to the static
tracker unless routed through a ``MUTATING_ACCESSORS`` entry — the shared
blind spot is documented in ``docs/static-analysis.md``.

Activation is reference-counted (every ``Daisy(diagnostics="witness")``
activates, every ``close()`` deactivates) and idempotent per class.  On
final deactivation the witness restores every wrapped method and, when
``REPRO_WITNESS_REPORT`` names a path, writes its JSON report there —
the artifact the CI ``witness`` job uploads.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro._ownership import (
    IMMUTABLE_AFTER_INIT,
    OWNERSHIP_REGISTRY,
    SESSION_OWNED,
    SHARED_ENGINE_STATE,
    OwnershipSpec,
    site_allowed,
)

#: Environment variable naming the JSON report path written on deactivation.
REPORT_ENV = "REPRO_WITNESS_REPORT"

#: Construction phase marker vs. steady-state.
PHASE_INIT = "init"
PHASE_POST_INIT = "post-init"


@dataclass(frozen=True)
class WitnessEvent:
    """One observed attribute write."""

    cls: str
    attr: str
    site: str
    thread: int
    thread_name: str
    phase: str

    def to_json(self) -> dict[str, Any]:
        return {
            "cls": self.cls,
            "attr": self.attr,
            "site": self.site,
            "thread": self.thread,
            "thread_name": self.thread_name,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class WitnessViolation:
    """One event that contradicts the declared ownership."""

    kind: str
    reason: str
    event: WitnessEvent

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "reason": self.reason,
                "event": self.event.to_json()}


def _dotted_site(frame: Any) -> str:
    """``module.qualname`` of a frame (``co_qualname`` on 3.11+)."""
    module = frame.f_globals.get("__name__", "?")
    qualname = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)
    return f"{module}.{qualname}"


def _site_candidates(site: str) -> list[str]:
    """The site plus every enclosing function (``.<locals>.`` peeled).

    Mirrors ``tools.daisylint.project.site_candidates``: a write inside a
    closure defined in a seam method still counts as that seam.
    """
    out = [site]
    current = site
    while ".<locals>." in current:
        current = current.rsplit(".<locals>.", 1)[0]
        out.append(current)
    return out


def _caller_site(depth: int) -> tuple[str, str]:
    """``(module, dotted site)`` ``depth`` frames above this helper's caller.

    Frames from this module itself are skipped: when two witnesses are
    active (a test's local instance stacked on the global one), the inner
    wrapper delegates to the outer, and the outer must still attribute
    the write to the real mutating frame, not to the inner wrapper.
    """
    frame = sys._getframe(depth + 1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - the stack always has a root
        return "?", "?"
    return frame.f_globals.get("__name__", "?"), _dotted_site(frame)


def _harness_module(module: str) -> bool:
    """Whether a module is test/doc harness code, exempt from ownership.

    The ownership contracts bind *engine* code; the test suite is the
    omniscient single-threaded supervisor and may hand-assemble engine
    objects (parity fixtures build ColumnViews directly, maintenance tests
    reset matrices to compare cold rebuilds).  Writes from such frames are
    recorded in the event stream but never escalate to violations.
    Seeded-bug fixtures live outside these name patterns on purpose, so
    the self-test still proves the witness fires.
    """
    leaf = module.rsplit(".", 1)[-1]
    return (
        leaf.startswith("test_")
        or leaf.startswith("docsnippet_")
        or leaf == "conftest"
    )


@dataclass
class _Wrapped:
    """Original attributes of one instrumented class, for restoration."""

    cls: type
    #: name -> original function object present in ``cls.__dict__``
    originals: dict[str, Any] = field(default_factory=dict)
    #: names that were *absent* from ``cls.__dict__`` before wrapping
    added: list[str] = field(default_factory=list)


class RaceWitness:
    """Instrument annotated classes and collect contradiction evidence."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._activations = 0
        self._wrapped: list[_Wrapped] = []
        self.events: list[WitnessEvent] = []
        self.violations: list[WitnessViolation] = []
        #: id(instance) -> construction-in-progress depth.
        self._constructing: dict[int, int] = {}
        #: id(instance) -> first post-init writer thread (session_owned).
        self._writer_thread: dict[int, tuple[int, str]] = {}

    # -- lifecycle -----------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._activations > 0

    def activate(self) -> None:
        """Instrument every registered class (reference-counted)."""
        with self._lock:
            self._activations += 1
            if self._activations > 1:
                return
            for cls, spec in list(OWNERSHIP_REGISTRY.items()):
                self._instrument(cls, spec)

    def deactivate(self) -> None:
        """Drop one activation; restore classes and report on the last."""
        with self._lock:
            if self._activations == 0:
                return
            self._activations -= 1
            if self._activations > 0:
                return
            for record in reversed(self._wrapped):
                for name, original in record.originals.items():
                    setattr(record.cls, name, original)
                for name in record.added:
                    try:
                        delattr(record.cls, name)
                    except AttributeError:
                        pass
            self._wrapped.clear()
            self._write_report()

    def reset(self) -> None:
        """Forget recorded events/violations (instrumentation stays)."""
        with self._lock:
            self.events.clear()
            self.violations.clear()
            self._writer_thread.clear()

    # -- recording -----------------------------------------------------------------

    def _observe(
        self,
        spec: OwnershipSpec,
        instance: Any,
        attr: str,
        module: str,
        site: str,
    ) -> None:
        thread = threading.current_thread()
        constructing = self._constructing.get(id(instance), 0) > 0
        phase = PHASE_INIT if constructing else PHASE_POST_INIT
        event = WitnessEvent(
            cls=spec.class_name,
            attr=attr,
            site=site,
            thread=thread.ident or 0,
            thread_name=thread.name,
            phase=phase,
        )
        with self._lock:
            self.events.append(event)
        if constructing:
            return
        if _harness_module(module):
            return
        if spec.kind == IMMUTABLE_AFTER_INIT:
            self._flag("immutable-write", event,
                       f"{spec.class_name}.{attr} written after construction")
        elif spec.kind == SHARED_ENGINE_STATE:
            if not self._seam_ok(spec, attr, site):
                seams = ", ".join(spec.seams_for(attr)) or "<none declared>"
                self._flag(
                    "seam-violation", event,
                    f"{spec.class_name}.{attr} written at {site}, outside "
                    f"its declared seams ({seams})",
                )
        elif spec.kind == SESSION_OWNED:
            key = id(instance)
            ident = (thread.ident or 0, thread.name)
            first = self._writer_thread.setdefault(key, ident)
            if first[0] != ident[0]:
                self._flag(
                    "cross-thread-write", event,
                    f"{spec.class_name}.{attr} written by thread "
                    f"{ident[1]!r} but instance is owned by {first[1]!r}",
                )

    def _seam_ok(self, spec: OwnershipSpec, attr: str, site: str) -> bool:
        return any(
            site_allowed(spec, attr, candidate)
            for candidate in _site_candidates(site)
        )

    def _flag(self, kind: str, event: WitnessEvent, reason: str) -> None:
        with self._lock:
            self.violations.append(WitnessViolation(kind, reason, event))

    # -- instrumentation -----------------------------------------------------------

    def _instrument(self, cls: type, spec: OwnershipSpec) -> None:
        record = _Wrapped(cls=cls)
        self._wrap_setattr(cls, spec, record)
        self._wrap_delattr(cls, spec, record)
        for name in spec.init_methods:
            self._wrap_init(cls, name, record)
        for name in spec.mutating_accessors:
            self._wrap_accessor(cls, spec, name, record)
        self._wrapped.append(record)

    def _stash(self, cls: type, name: str, record: _Wrapped) -> Any:
        """Remember the pre-wrap state of ``cls.__dict__[name]``."""
        if name in cls.__dict__:
            record.originals[name] = cls.__dict__[name]
            return cls.__dict__[name]
        record.added.append(name)
        return None

    def _wrap_setattr(
        self, cls: type, spec: OwnershipSpec, record: _Wrapped
    ) -> None:
        self._stash(cls, "__setattr__", record)
        original = cls.__setattr__  # bound through the MRO
        witness = self

        @functools.wraps(original)
        def wrapped_setattr(self_: Any, name: str, value: Any) -> None:
            module, site = _caller_site(1)
            witness._observe(spec, self_, name, module, site)
            original(self_, name, value)

        cls.__setattr__ = wrapped_setattr  # type: ignore[method-assign]

    def _wrap_delattr(
        self, cls: type, spec: OwnershipSpec, record: _Wrapped
    ) -> None:
        self._stash(cls, "__delattr__", record)
        original = cls.__delattr__
        witness = self

        @functools.wraps(original)
        def wrapped_delattr(self_: Any, name: str) -> None:
            module, site = _caller_site(1)
            witness._observe(spec, self_, name, module, site)
            original(self_, name)

        cls.__delattr__ = wrapped_delattr  # type: ignore[method-assign]

    def _wrap_init(self, cls: type, name: str, record: _Wrapped) -> None:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            return
        self._stash(cls, name, record)
        witness = self

        @functools.wraps(original)
        def wrapped_init(self_: Any, *args: Any, **kwargs: Any) -> Any:
            key = id(self_)
            # A fresh construction retires any owner recorded for a
            # garbage-collected instance that recycled this id.
            witness._writer_thread.pop(key, None)
            witness._constructing[key] = witness._constructing.get(key, 0) + 1
            try:
                return original(self_, *args, **kwargs)
            finally:
                depth = witness._constructing.get(key, 1) - 1
                if depth <= 0:
                    witness._constructing.pop(key, None)
                else:
                    witness._constructing[key] = depth

        setattr(cls, name, wrapped_init)

    def _wrap_accessor(
        self, cls: type, spec: OwnershipSpec, name: str, record: _Wrapped
    ) -> None:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            return
        self._stash(cls, name, record)
        attr = spec.mutating_accessors[name]
        witness = self

        @functools.wraps(original)
        def wrapped_accessor(self_: Any, *args: Any, **kwargs: Any) -> Any:
            # The alias mutation belongs to whoever called the accessor:
            # that is the site the static tracker attributes it to.
            module, site = _caller_site(1)
            witness._observe(spec, self_, attr, module, site)
            return original(self_, *args, **kwargs)

        setattr(cls, name, wrapped_accessor)

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """The JSON-serializable summary CI uploads as an artifact."""
        with self._lock:
            per_class: dict[str, int] = {}
            for event in self.events:
                per_class[event.cls] = per_class.get(event.cls, 0) + 1
            return {
                "events": len(self.events),
                "writes_per_class": dict(sorted(per_class.items())),
                "violations": [v.to_json() for v in self.violations],
            }

    def _write_report(self) -> None:
        path = os.environ.get(REPORT_ENV)
        if not path:
            return
        try:
            with open(path, "w") as handle:  # daisylint: disable=DL009 - diagnostics report artifact, not engine data
                json.dump(self.report(), handle, indent=2)
                handle.write("\n")
        except OSError:  # pragma: no cover - diagnostics must not crash
            pass


#: The process-wide witness all activations share.
_GLOBAL = RaceWitness()


def global_witness() -> RaceWitness:
    return _GLOBAL


@contextmanager
def watching() -> Iterator[RaceWitness]:
    """Activate the global witness for one scope (reference-counted).

    The service soak test and ad-hoc instrumented runs wrap their whole
    workload in ``with watching() as witness:`` and assert on
    ``witness.violations`` afterwards — activation nests safely with the
    conftest harness fixture because activate/deactivate are counted.
    """
    witness = global_witness()
    witness.activate()
    try:
        yield witness
    finally:
        witness.deactivate()
