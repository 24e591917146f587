"""The daisylint rule suite: this repo's engine invariants as AST checks.

Each rule encodes one invariant the parity tests enforce dynamically (see
``docs/static-analysis.md`` for the catalog with rationale):

=======  ==============================================================
DL001    set-iteration determinism in result-producing modules
DL003    wall-clock reads outside the timing module / benchmarks
DL004    unseeded randomness in the engine
DL005    bare / overbroad ``except``
DL006    mutable default arguments
DL007    pass entry points called without a WorkCounter threaded through
DL008    kernel-oracle parity registry completeness in kernels.py
DL009    raw file / sqlite / mmap access outside ``repro/storage``
=======  ==============================================================

Rules are *syntactic* (no type inference): they flag what they can prove
from one module's AST and lean on per-line ``# daisylint:
disable=CODE`` suppressions for the rare intentional exception.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.daisylint.core import Finding, ModuleInfo, Rule, register

#: Modules whose outputs feed query results / repairs — any nondeterministic
#: iteration order here can leak into violations, repairs, or reports and
#: break the rowstore/columnar parity invariant.
RESULT_PACKAGES = (
    "src/repro/detection/",
    "src/repro/repair/",
    "src/repro/relation/",
    "src/repro/query/",
)

#: All engine source (rules DL005/DL006 apply repo-engine-wide).
ENGINE_PREFIX = "src/repro/"

#: The one module allowed to read wall clocks (plus benchmarks/).
CLOCK_ALLOWED = ("src/repro/metrics/timing.py",)

#: Functions whose signature threads a WorkCounter; engine call sites must
#: pass ``counter=`` explicitly so no pass escapes work accounting.
COUNTER_REQUIRED = {
    "relax_fd",
    "compute_fd_fixes",
    "compute_dc_fixes",
    "apply_fd_delta",
    "apply_dc_delta",
}

#: Call sites allowed to omit ``counter=`` (the deliberate exceptions).
COUNTER_ALLOWLIST: set[tuple[str, str]] = set()

#: Order-insensitive consumers: iterating a set *inside* these calls cannot
#: leak order into results.
ORDER_INSENSITIVE_CALLS = {
    "sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset",
    "Counter",
}

#: Mutating methods on the builtin containers (receiver mutated in place).
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
}


def _in_result_packages(relpath: str) -> bool:
    return any(relpath.startswith(p) for p in RESULT_PACKAGES)


def _call_name(node: ast.Call) -> str | None:
    """Terminal name of the called object (``f`` or ``obj.f`` -> ``f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------------
# Set-expression inference (shared by DL001)
# ---------------------------------------------------------------------------

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _ScopeSets:
    """Which local names are provably sets in one function/module scope.

    A name qualifies only when *every* binding in the scope is a syntactic
    set expression (set display, set comprehension, ``set()`` /
    ``frozenset()`` call, set-operator combination of sets, or an
    annotated ``set[...]``); one unknown binding disqualifies it — the
    rule prefers missed findings over false ones.
    """

    def __init__(self, scope: ast.AST):
        self.set_names: set[str] = set()
        unknown: set[str] = set()
        candidates: set[str] = set()
        for node in _walk_scope(scope):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                if _annotation_is_set(node.annotation):
                    if isinstance(node.target, ast.Name):
                        candidates.add(node.target.id)
                    continue
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                # x |= … keeps a set a set; any other augmented op makes
                # the name unknown.
                if not isinstance(node.op, _SET_BINOPS):
                    for name in _target_names(node.target):
                        unknown.add(name)
                continue
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets, value = [node.target], None
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [i.optional_vars for i in node.items if i.optional_vars]
                value = None
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                unknown.add(node.name)
                continue
            else:
                continue
            for target in targets:
                for name in _target_names(target):
                    if value is not None and self._is_set_expr(value, candidates):
                        candidates.add(name)
                    else:
                        unknown.add(name)
        # Parameters are unknown bindings.
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for arg in _all_args(scope.args):
                unknown.add(arg.arg)
        self.set_names = candidates - unknown

    def _is_set_expr(self, node: ast.expr, known: set[str]) -> bool:
        return _is_set_expr(node, known)

    def is_set(self, node: ast.expr) -> bool:
        return _is_set_expr(node, self.set_names)


def _is_set_expr(node: ast.expr, known_set_names: set[str]) -> bool:
    """Syntactic "this expression evaluates to a set/frozenset" test."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expr(node.func.value, known_set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, known_set_names) or _is_set_expr(
            node.right, known_set_names
        )
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, known_set_names) and _is_set_expr(
            node.orelse, known_set_names
        )
    if isinstance(node, ast.Name):
        return node.id in known_set_names
    return False


def _annotation_is_set(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset"}
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith(("set[", "frozenset[", "set", "frozenset"))
    return False


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _all_args(args: ast.arguments) -> list[ast.arg]:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def _enclosing_scopes(module: ModuleInfo, node: ast.AST) -> list[ast.AST]:
    """Innermost-first chain of function scopes containing ``node``."""
    out: list[ast.AST] = []
    cur: ast.AST | None = module.parent(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out.append(cur)
        cur = module.parent(cur)
    return out


# ---------------------------------------------------------------------------
# DL001
# ---------------------------------------------------------------------------


@register
class SetIterationRule(Rule):
    code = "DL001"
    name = "set-iteration-determinism"
    rationale = (
        "Iterating a set without sorted() yields a hash-seed-dependent order; "
        "in result-producing modules that order leaks into violations, "
        "repairs, and parity-critical merges."
    )

    def applies(self, relpath: str) -> bool:
        return _in_result_packages(relpath)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        scope_cache: dict[int, _ScopeSets] = {}

        def sets_for(node: ast.AST) -> _ScopeSets:
            scopes = _enclosing_scopes(module, node)
            scope: ast.AST = scopes[0] if scopes else module.tree
            key = id(scope)
            if key not in scope_cache:
                scope_cache[key] = _ScopeSets(scope)
            return scope_cache[key]

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if sets_for(node).is_set(node.iter):
                    yield module.finding(
                        self.code,
                        node.iter,
                        "iteration over a set has hash-seed-dependent order; "
                        "wrap in sorted() or restructure",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                consumer = module.parent(node)
                if (
                    isinstance(consumer, ast.Call)
                    and isinstance(consumer.func, ast.Name)
                    and consumer.func.id in ORDER_INSENSITIVE_CALLS
                ):
                    continue
                if isinstance(node, (ast.SetComp, ast.DictComp)):
                    # The comprehension's own result is unordered-by-content
                    # (set) or keyed (dict); iterating a set *into* one is
                    # fine unless order-dependent work happens inside —
                    # which a dict comp's insertion order is. Only the
                    # first generator's order is observable for dicts.
                    if isinstance(node, ast.SetComp):
                        continue
                sets = sets_for(node)
                for gen in node.generators:
                    if sets.is_set(gen.iter):
                        yield module.finding(
                            self.code,
                            gen.iter,
                            "comprehension over a set has hash-seed-dependent "
                            "order; wrap in sorted()",
                        )
            elif isinstance(node, ast.Call):
                fname = node.func.id if isinstance(node.func, ast.Name) else None
                if fname in {"list", "tuple", "enumerate", "iter"} and node.args:
                    if sets_for(node).is_set(node.args[0]):
                        yield module.finding(
                            self.code,
                            node.args[0],
                            f"{fname}() over a set materializes a "
                            "hash-seed-dependent order; use sorted()",
                        )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and sets_for(node).is_set(node.args[0])
                ):
                    yield module.finding(
                        self.code,
                        node.args[0],
                        "str.join over a set renders a hash-seed-dependent "
                        "order; use sorted()",
                    )


# ---------------------------------------------------------------------------
# DL003
# ---------------------------------------------------------------------------

_CLOCK_TIME_FUNCS = {
    "time", "perf_counter", "monotonic", "process_time",
    "time_ns", "perf_counter_ns", "monotonic_ns", "process_time_ns",
}
_CLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}


@register
class WallClockRule(Rule):
    code = "DL003"
    name = "wall-clock-in-engine"
    rationale = (
        "Engine results and work accounting must be time-independent; all "
        "timing flows through metrics/timing.py so parity tests can reason "
        "about work units, not seconds."
    )

    def applies(self, relpath: str) -> bool:
        return (
            relpath.startswith("src/")
            and relpath not in CLOCK_ALLOWED
            and not relpath.startswith("benchmarks/")
        )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        time_aliases, dt_aliases, from_imports = _clock_imports(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name):
                    if base.id in time_aliases and node.attr in _CLOCK_TIME_FUNCS:
                        yield self._flag(module, node, f"time.{node.attr}")
                    elif base.id in dt_aliases and node.attr in _CLOCK_DATETIME_FUNCS:
                        yield self._flag(module, node, f"datetime.{node.attr}")
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in dt_aliases
                    and node.attr in _CLOCK_DATETIME_FUNCS
                ):
                    yield self._flag(module, node, f"datetime.datetime.{node.attr}")
            elif isinstance(node, ast.Name) and node.id in from_imports:
                if isinstance(node.ctx, ast.Load):
                    yield self._flag(module, node, from_imports[node.id])

    def _flag(self, module: ModuleInfo, node: ast.AST, what: str) -> Finding:
        return module.finding(
            self.code,
            node,
            f"wall-clock read ({what}) outside metrics/timing.py; route "
            "through repro.metrics.timing",
        )


def _clock_imports(tree: ast.Module) -> tuple[set[str], set[str], dict[str, str]]:
    """(aliases of ``time``, aliases of ``datetime``, from-imported clock names)."""
    time_aliases: set[str] = set()
    dt_aliases: set[str] = set()
    from_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
                elif alias.name == "datetime":
                    dt_aliases.add(alias.asname or "datetime")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_TIME_FUNCS:
                        from_imports[alias.asname or alias.name] = f"time.{alias.name}"
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in {"datetime", "date"}:
                        dt_aliases.add(alias.asname or alias.name)
    return time_aliases, dt_aliases, from_imports


# ---------------------------------------------------------------------------
# DL004
# ---------------------------------------------------------------------------


@register
class UnseededRandomRule(Rule):
    code = "DL004"
    name = "unseeded-randomness"
    rationale = (
        "Every stochastic path (error injection, workload generation) must "
        "take an explicit seed so runs are reproducible; the global random "
        "module is process-wide mutable state."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(ENGINE_PREFIX)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases: set[str] = set()
        from_names: set[str] = set()
        np_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
                    elif alias.name == "numpy":
                        np_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in {"Random", "SystemRandom"}:
                        from_names.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base = func.value.id
                if base in aliases:
                    if func.attr == "Random":
                        if not node.args and not node.keywords:
                            yield module.finding(
                                self.code, node,
                                "random.Random() without a seed; pass an "
                                "explicit seed",
                            )
                    elif func.attr != "SystemRandom":
                        yield module.finding(
                            self.code, node,
                            f"module-level random.{func.attr}() uses the "
                            "shared unseeded global RNG; use random.Random(seed)",
                        )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in np_aliases
                and func.value.attr == "random"
            ):
                yield module.finding(
                    self.code, node,
                    f"numpy.random.{func.attr}() uses the global NumPy RNG; "
                    "use numpy.random.Generator with an explicit seed",
                )
            elif isinstance(func, ast.Name) and func.id in from_names:
                yield module.finding(
                    self.code, node,
                    f"{func.id}() from the random module uses the shared "
                    "unseeded global RNG; use random.Random(seed)",
                )


# ---------------------------------------------------------------------------
# DL005
# ---------------------------------------------------------------------------


@register
class OverbroadExceptRule(Rule):
    code = "DL005"
    name = "overbroad-except"
    rationale = (
        "A bare or Exception-wide handler can swallow engine invariant "
        "violations (parity assertion errors, counter corruption) and turn "
        "them into silent wrong answers."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(ENGINE_PREFIX)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    self.code, node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions you expect",
                )
                continue
            if not _is_broad_type(node.type):
                continue
            if _handler_reraises(node):
                continue
            try_node = module.parent(node)
            if isinstance(try_node, ast.Try) and _try_is_import_guard(try_node):
                continue
            yield module.finding(
                self.code, node,
                "except Exception without re-raise can hide invariant "
                "violations; narrow the type or re-raise",
            )


def _is_broad_type(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in {"Exception", "BaseException"}
    if isinstance(node, ast.Tuple):
        return any(_is_broad_type(elt) for elt in node.elts)
    return False


def _handler_reraises(node: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(node))


def _try_is_import_guard(node: ast.Try) -> bool:
    """Optional-dependency idiom: the try body performs an import."""
    return any(isinstance(stmt, (ast.Import, ast.ImportFrom)) for stmt in node.body)


# ---------------------------------------------------------------------------
# DL006
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict",
}


@register
class MutableDefaultRule(Rule):
    code = "DL006"
    name = "mutable-default-argument"
    rationale = (
        "A mutable default is shared across calls — per-query state bleeding "
        "across sessions is exactly the class of bug session confinement "
        "exists to prevent."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(ENGINE_PREFIX)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield module.finding(
                        self.code, default,
                        "mutable default argument is shared across calls; "
                        "use None and construct inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )


# ---------------------------------------------------------------------------
# DL007
# ---------------------------------------------------------------------------


@register
class CounterBypassRule(Rule):
    code = "DL007"
    name = "workcounter-bypass"
    rationale = (
        "Every detection/repair pass charges work units to a WorkCounter; a "
        "call site that drops the counter makes the pass invisible to the "
        "cost model and breaks work-unit parity between backends."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(ENGINE_PREFIX)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fname = _call_name(node)
            if fname not in COUNTER_REQUIRED:
                continue
            if any(kw.arg == "counter" for kw in node.keywords):
                continue
            if any(kw.arg is None for kw in node.keywords):  # **kwargs passthrough
                continue
            if (module.relpath, fname) in COUNTER_ALLOWLIST:
                continue
            yield module.finding(
                self.code, node,
                f"{fname}() called without counter=; thread the pass's "
                "WorkCounter through so work accounting stays complete",
            )


# ---------------------------------------------------------------------------
# DL008
# ---------------------------------------------------------------------------

KERNELS_MODULE = "src/repro/relation/kernels.py"
REGISTRY_NAME = "KERNEL_ORACLES"


@register
class KernelOracleRegistryRule(Rule):
    code = "DL008"
    name = "kernel-oracle-registry"
    rationale = (
        "Every NumPy kernel must be byte-identical to a pure-Python oracle; "
        "the module-level KERNEL_ORACLES registry names each kernel's "
        "oracle so the parity obligation is visible and testable."
    )

    def applies(self, relpath: str) -> bool:
        return relpath == KERNELS_MODULE or relpath.endswith("/kernels.py")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        public_fns: dict[str, ast.FunctionDef] = {}
        registry: ast.Dict | None = None
        registry_node: ast.AST | None = None
        for stmt in module.tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                public_fns[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == REGISTRY_NAME:
                        registry_node = stmt
                        if isinstance(stmt.value, ast.Dict):
                            registry = stmt.value
        if registry is None:
            yield module.finding(
                self.code,
                registry_node or module.tree.body[0] if module.tree.body else module.tree,
                f"kernels module must define a module-level {REGISTRY_NAME} "
                "dict literal mapping every public function to its "
                "pure-Python oracle",
            )
            return
        entries: dict[str, ast.expr] = {}
        for key, value in zip(registry.keys, registry.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                entries[key.value] = value
            else:
                yield module.finding(
                    self.code, key or registry,
                    f"{REGISTRY_NAME} keys must be string literals",
                )
        for name, fn in sorted(public_fns.items()):
            if name not in entries:
                yield module.finding(
                    self.code, fn,
                    f"public kernel {name}() missing from {REGISTRY_NAME}; "
                    "name its pure-Python oracle",
                )
        for name, value in sorted(entries.items()):
            if name not in public_fns:
                yield module.finding(
                    self.code, value,
                    f"{REGISTRY_NAME} entry {name!r} has no matching public "
                    "function in kernels.py",
                )
            elif not (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value.strip()
            ):
                yield module.finding(
                    self.code, value,
                    f"{REGISTRY_NAME}[{name!r}] must be a non-empty string "
                    "naming the oracle",
                )


# ---------------------------------------------------------------------------
# DL009
# ---------------------------------------------------------------------------

#: The one package allowed to touch files, SQLite, and mmap directly.
STORAGE_PREFIX = "src/repro/storage/"

#: Modules whose *import* already signals raw storage access.
_STORAGE_MODULES = {"sqlite3", "mmap"}


@register
class RawStorageAccessRule(Rule):
    code = "DL009"
    name = "raw-storage-access-outside-storage"
    rationale = (
        "All spill files, SQLite mirrors, and memory maps are owned by "
        "repro/storage so Session.close()/Daisy.close() can account for "
        "every OS handle; an open()/sqlite3.connect()/mmap elsewhere in "
        "the engine escapes the leak-check and the spill lifecycle."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(ENGINE_PREFIX) and not relpath.startswith(
            STORAGE_PREFIX
        )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        storage_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _STORAGE_MODULES:
                        storage_aliases.add(alias.asname or alias.name)
                        yield module.finding(
                            self.code, node,
                            f"import of {alias.name!r} outside repro/storage; "
                            "route raw storage access through the storage "
                            "package",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in _STORAGE_MODULES:
                    yield module.finding(
                        self.code, node,
                        f"from-import of {node.module!r} outside "
                        "repro/storage; route raw storage access through "
                        "the storage package",
                    )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield module.finding(
                    self.code, node,
                    "open() outside repro/storage; engine file handles must "
                    "live behind the storage package's lifecycle",
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in storage_aliases
                and func.attr in ("connect", "mmap")
            ):
                yield module.finding(
                    self.code, node,
                    f"{func.value.id}.{func.attr}() outside repro/storage",
                )


__all__ = [
    "RESULT_PACKAGES",
    "ENGINE_PREFIX",
    "STORAGE_PREFIX",
    "COUNTER_REQUIRED",
    "SetIterationRule",
    "WallClockRule",
    "UnseededRandomRule",
    "OverbroadExceptRule",
    "MutableDefaultRule",
    "CounterBypassRule",
    "KernelOracleRegistryRule",
    "RawStorageAccessRule",
]
