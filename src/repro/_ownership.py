"""Ownership annotations: which engine objects are shared, owned, or frozen.

The concurrent multi-session service tier multiplexes many
:class:`repro.api.Session` objects over one shared engine.  That only
works if the boundary between *shared engine state* (one copy, reached by
every session) and *session-owned state* (one copy per session, touched by
exactly one session's threads) is explicit and machine-checked.  This
module is the registry those checks hang off:

* ``@shared_engine_state`` — one instance serves every session.  Mutation
  is only legal inside the class's declared *seams* (the ``MUTATED_UNDER``
  table below); everything else must treat the object as read-only.  The
  service tier serializes seam entry (single writer / epoch-CAS per
  table), so "all writes go through a seam" is exactly the property that
  makes concurrent reads safe.
* ``@session_owned`` — created by and confined to one session.  No seam
  table needed: the single-writer discipline is "only the owning session's
  thread writes", which the runtime witness checks directly.
* ``@immutable_after_init`` — frozen once construction completes (the
  strongest and cheapest contract: immutable objects are always safe to
  share).  Construction means ``__init__`` / ``__post_init__`` plus any
  extra builder methods named via ``init_methods``.

Two class-level declaration tables refine the annotations:

``MUTATED_UNDER``
    ``dict[str, tuple[str, ...]]`` on a ``@shared_engine_state`` class:
    for each mutable attribute, the dotted names of the functions allowed
    to mutate it (its synchronization/ownership seam).  Seam names match
    on dotted-boundary suffix: ``"TableState.apply_updates"`` matches the
    method wherever the class lives, ``"maintenance.sync_matrix"`` names a
    module-level seam in another module.  ``__init__`` and the declared
    ``init_methods`` are always implicitly allowed.  An attribute missing
    from the table is *undeclared*: daisylint DL101 flags any post-init
    mutation of it.

``MUTATING_ACCESSORS``
    ``dict[str, str]`` (method name -> attribute): methods that hand out
    or mutate an attribute by alias (e.g. ``seen_for`` returning a live
    set).  The runtime witness wraps these so alias mutation is observed
    as a write to the named attribute even though no ``__setattr__``
    fires.

The decorators are deliberately free of behaviour: they only record an
:class:`OwnershipSpec` in :data:`OWNERSHIP_REGISTRY` and return the class
unchanged, so annotated code pays nothing until the race witness
(:mod:`repro.diagnostics.witness`) is activated.  The static side —
daisylint's DL100-series rules — never imports this module; it recognizes
the decorators and tables by name in the AST.  Keeping both sides keyed
on the same declarations is the point: every ownership claim is enforced
statically *and* witnessed dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TypeVar

#: Ownership kinds, in increasing order of mutation freedom.
IMMUTABLE_AFTER_INIT = "immutable_after_init"
SESSION_OWNED = "session_owned"
SHARED_ENGINE_STATE = "shared_engine_state"
OWNERSHIP_KINDS = (IMMUTABLE_AFTER_INIT, SESSION_OWNED, SHARED_ENGINE_STATE)

#: Methods always treated as part of construction.
DEFAULT_INIT_METHODS = ("__init__", "__post_init__", "__new__")


@dataclass(frozen=True)
class OwnershipSpec:
    """One class's declared ownership contract."""

    kind: str
    cls: type
    #: Attribute -> allowed mutation seams (dotted-suffix matched).
    mutated_under: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Method name -> attribute it mutates/aliases (witness wrap targets).
    mutating_accessors: dict[str, str] = field(default_factory=dict)
    #: Methods that count as construction (writes there are always legal).
    init_methods: tuple[str, ...] = DEFAULT_INIT_METHODS

    @property
    def class_name(self) -> str:
        return self.cls.__name__

    def seams_for(self, attr: str) -> tuple[str, ...]:
        return self.mutated_under.get(attr, ())

    def is_declared(self, attr: str) -> bool:
        return attr in self.mutated_under


#: The runtime registry: class -> its ownership spec.  Populated by the
#: decorators at import time; read by the race witness when activated.
OWNERSHIP_REGISTRY: dict[type, OwnershipSpec] = {}  # daisylint: disable=DL104 - the registry the DL104 rule itself hangs off; written only by class decorators at import time

_T = TypeVar("_T")


def _register(
    cls: type, kind: str, init_methods: Iterable[str] | None = None
) -> type:
    mutated_under = {
        attr: tuple(seams)
        for attr, seams in sorted(getattr(cls, "MUTATED_UNDER", {}).items())
    }
    accessors = dict(sorted(getattr(cls, "MUTATING_ACCESSORS", {}).items()))
    inits = DEFAULT_INIT_METHODS + tuple(init_methods or ())
    OWNERSHIP_REGISTRY[cls] = OwnershipSpec(
        kind=kind,
        cls=cls,
        mutated_under=mutated_under,
        mutating_accessors=accessors,
        init_methods=inits,
    )
    return cls


def shared_engine_state(cls: type[_T]) -> type[_T]:
    """One instance serves every session; writes only inside declared seams.

    The class should carry a ``MUTATED_UNDER`` table naming, per mutable
    attribute, the functions allowed to mutate it.  daisylint DL101 flags
    mutations outside those seams statically; the race witness flags them
    dynamically.
    """
    return _register(cls, SHARED_ENGINE_STATE)  # type: ignore[return-value]


def session_owned(cls: type[_T]) -> type[_T]:
    """Created by and confined to one session; one writing thread, ever."""
    return _register(cls, SESSION_OWNED)  # type: ignore[return-value]


def immutable_after_init(
    cls: type[_T] | None = None, *, init_methods: Iterable[str] | None = None
) -> "type[_T] | _ImmutableDecorator":
    """Frozen once construction completes.

    Usable bare (``@immutable_after_init``) or parameterized
    (``@immutable_after_init(init_methods=("_build",))``) when
    construction extends past ``__init__`` into named builder methods —
    daisylint DL102 and the runtime witness both honour the extension.
    """
    if cls is not None:
        return _register(cls, IMMUTABLE_AFTER_INIT)  # type: ignore[return-value]
    return _ImmutableDecorator(tuple(init_methods or ()))


class _ImmutableDecorator:
    """The parameterized form of :func:`immutable_after_init`."""

    def __init__(self, init_methods: tuple[str, ...]) -> None:
        self.init_methods = init_methods

    def __call__(self, cls: type[_T]) -> type[_T]:
        return _register(  # type: ignore[return-value]
            cls, IMMUTABLE_AFTER_INIT, init_methods=self.init_methods
        )


def ownership_of(cls: type) -> OwnershipSpec | None:
    """The spec of ``cls`` or its nearest annotated base (None if none)."""
    for base in cls.__mro__:
        spec = OWNERSHIP_REGISTRY.get(base)
        if spec is not None:
            return spec
    return None


def seam_matches(seam: str, dotted_site: str) -> bool:
    """Whether a declared seam names the (dotted) mutation site.

    Suffix match on dotted boundaries: seam ``"TableState.apply_updates"``
    matches site ``"repro.core.state.TableState.apply_updates"`` but not
    ``"OtherTableState.apply_updates"``; a bare function seam matches any
    module's function of that name.  Used identically by the static rules
    and the runtime witness so the two enforcement layers cannot drift.
    """
    if not seam:
        return False
    if dotted_site == seam:
        return True
    return dotted_site.endswith("." + seam)


def site_allowed(
    spec: OwnershipSpec, attr: str, dotted_site: str
) -> bool:
    """Whether a mutation of ``attr`` at ``dotted_site`` is inside the seam.

    Construction methods of the annotated class are always allowed.
    """
    leaf = dotted_site.rsplit(".", 1)[-1]
    if leaf in spec.init_methods:
        # Only the class's own construction, not any method that happens
        # to be called __init__: require the class name on the dotted path.
        if f".{spec.class_name}." in f".{dotted_site}":
            return True
    return any(seam_matches(seam, dotted_site) for seam in spec.seams_for(attr))


__all__ = [
    "IMMUTABLE_AFTER_INIT",
    "SESSION_OWNED",
    "SHARED_ENGINE_STATE",
    "OWNERSHIP_KINDS",
    "DEFAULT_INIT_METHODS",
    "OwnershipSpec",
    "OWNERSHIP_REGISTRY",
    "shared_engine_state",
    "session_owned",
    "immutable_after_init",
    "ownership_of",
    "seam_matches",
    "site_allowed",
]
