"""DL100-series rules: ownership & shared-state concurrency analysis.

These are *project* rules: they run over the merged :class:`ProjectModel`
(symbol table + attribute-mutation map + Session reachability), not over
a single file's AST.  They enforce the ownership contract declared with
``repro/_ownership.py``'s annotations — the same contract the runtime
race witness (``repro/diagnostics/witness.py``) validates dynamically:

* DL101 — a ``@shared_engine_state`` attribute is mutated outside its
  declared ``MUTATED_UNDER`` seam (or has no seam declaration at all).
* DL102 — an ``@immutable_after_init`` object is written after
  construction (``__init__`` / ``__post_init__`` / declared builders).
* DL103 — an engine class reachable from ``Session`` mutates its own
  state but carries no ownership annotation: nobody has said whether it
  is shared, session-owned, or frozen.
* DL104 — class-level mutable defaults / module-level mutable state in
  engine packages: one object shared by every instance and every session.
"""

from __future__ import annotations

from typing import Iterator

from tools.daisylint.core import Finding, ProjectRule, register
from tools.daisylint.project import (
    ProjectModel,
    ResolvedMutation,
    site_candidates,
    site_in_seams,
)
from tools.daisylint.rules import ENGINE_PREFIX


def _mutation_finding(code: str, mutation: ResolvedMutation, message: str) -> Finding:
    record = mutation.record
    return Finding(
        code=code,
        path=record.relpath,
        line=record.line,
        col=record.col,
        message=message,
        source_line=record.source_line,
    )


def _chain_class_names(project: ProjectModel, key: str) -> tuple[str, ...]:
    return tuple(
        project.class_summary(candidate).name
        for candidate in project.base_chain(key)
    )


def _site_is_construction(
    site: str, init_methods: tuple[str, ...], class_names: tuple[str, ...]
) -> bool:
    """Construction sites of the class (or a subclass in its chain)."""
    for candidate in site_candidates(site):
        leaf = candidate.rsplit(".", 1)[-1]
        if leaf not in init_methods:
            continue
        padded = f".{candidate}."
        if any(f".{name}." in padded for name in class_names):
            return True
    return False


@register
class SharedStateSeamRule(ProjectRule):
    code = "DL101"
    name = "shared-state-mutation-outside-seam"
    rationale = (
        "@shared_engine_state objects are reached by every session; a write "
        "outside the declared MUTATED_UNDER seam bypasses the single-writer "
        "discipline the service tier relies on."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for mutation in project.mutations:
            ownership = project.ownership_of(mutation.cls_key)
            if ownership is None or ownership[0] != "shared_engine_state":
                continue
            kind, declaring = ownership
            cls = project.class_summary(mutation.cls_key)
            init_methods = tuple(
                dict.fromkeys(cls.init_methods + declaring.init_methods)
            )
            class_names = _chain_class_names(project, mutation.cls_key)
            site = mutation.record.site
            if _site_is_construction(site, init_methods, class_names):
                continue
            seams = declaring.mutated_under.get(mutation.attr)
            if seams is None:
                yield _mutation_finding(
                    self.code, mutation,
                    f"shared_engine_state attribute "
                    f"'{declaring.name}.{mutation.attr}' is mutated at {site} "
                    f"but has no MUTATED_UNDER seam declaration",
                )
                continue
            if not site_in_seams(site, seams, init_methods, declaring.name):
                declared = ", ".join(seams) or "<nothing>"
                yield _mutation_finding(
                    self.code, mutation,
                    f"shared_engine_state attribute "
                    f"'{declaring.name}.{mutation.attr}' is mutated at {site}, "
                    f"outside its declared seam ({declared})",
                )


@register
class ImmutableAfterInitRule(ProjectRule):
    code = "DL102"
    name = "immutable-object-written-after-init"
    rationale = (
        "@immutable_after_init objects are shared freely because they never "
        "change; a post-construction write silently breaks every reader."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for mutation in project.mutations:
            ownership = project.ownership_of(mutation.cls_key)
            if ownership is None or ownership[0] != "immutable_after_init":
                continue
            kind, declaring = ownership
            cls = project.class_summary(mutation.cls_key)
            init_methods = tuple(
                dict.fromkeys(cls.init_methods + declaring.init_methods)
            )
            class_names = _chain_class_names(project, mutation.cls_key)
            site = mutation.record.site
            if _site_is_construction(site, init_methods, class_names):
                continue
            yield _mutation_finding(
                self.code, mutation,
                f"immutable_after_init class '{declaring.name}' attribute "
                f"'{mutation.attr}' is written after construction at {site}",
            )


@register
class UnannotatedSharedClassRule(ProjectRule):
    code = "DL103"
    name = "session-reachable-class-without-ownership"
    rationale = (
        "every mutable engine class a Session can reach must declare whether "
        "it is shared across sessions, session-owned, or frozen — otherwise "
        "the concurrency contract exists only in reviewers' heads."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for key in sorted(project.session_reachable()):
            summary, cls = project.classes[key]
            if not summary.relpath.startswith(ENGINE_PREFIX):
                continue
            if project.ownership_of(key) is not None:
                continue
            if not project.post_init_mutations(key):
                # Classes that never mutate themselves post-construction
                # cannot race; requiring annotations there is noise.
                continue
            yield Finding(
                code=self.code,
                path=summary.relpath,
                line=cls.lineno,
                col=cls.col,
                message=(
                    f"class '{cls.name}' is reachable from Session and mutates "
                    f"its own state but carries no ownership annotation "
                    f"(@shared_engine_state / @session_owned / "
                    f"@immutable_after_init)"
                ),
                source_line=cls.source_line,
            )


@register
class SharedMutableDefaultRule(ProjectRule):
    code = "DL104"
    name = "shared-mutable-class-or-module-state"
    rationale = (
        "a mutable object bound at class or module level is one object "
        "shared by every instance, session, and thread — hidden global "
        "state the ownership model cannot see."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.summaries:
            if not summary.relpath.startswith(ENGINE_PREFIX):
                continue
            for cls in summary.classes:
                for name, line, col, source_line in cls.mutable_defaults:
                    yield Finding(
                        code=self.code,
                        path=summary.relpath,
                        line=line,
                        col=col,
                        message=(
                            f"class-level mutable default '{cls.name}.{name}' "
                            f"is shared by every instance across sessions"
                        ),
                        source_line=source_line,
                    )
            for name, line, col, source_line in summary.module_mutables:
                yield Finding(
                    code=self.code,
                    path=summary.relpath,
                    line=line,
                    col=col,
                    message=(
                        f"module-level mutable state '{name}' is shared by "
                        f"every session and thread in the process"
                    ),
                    source_line=source_line,
                )


__all__ = [
    "SharedStateSeamRule",
    "ImmutableAfterInitRule",
    "UnannotatedSharedClassRule",
    "SharedMutableDefaultRule",
]
