"""daisylint whole-program analysis: symbol table, call graph, mutation map.

The DL001–DL009 rules are per-file: one AST, one linear pass.  The
ownership rules (DL101–DL104) need to see the whole program — which class
an annotated variable refers to in another module, which methods mutate
which attributes, what the ``Session`` object can reach.  This module is
that layer, split in two so it stays compatible with ``--jobs`` parallel
analysis and the on-disk result cache:

* :class:`ModuleSummary` — a *serializable* per-file extraction: the
  classes a file defines (with ownership decorators and their
  ``MUTATED_UNDER`` / ``MUTATING_ACCESSORS`` declaration tables parsed
  from literals), every attribute-mutation site (``self.x = …``,
  ``self.x.append(…)``, ``del self.x``, item assignment, and mutation
  through aliases returned by accessor methods), type references, call
  edges, and class/module-level mutable state.  Summaries are plain data:
  worker processes return them, the cache stores them.
* :class:`ProjectModel` — the merge: a project-wide symbol table (dotted
  name → class), import-aware reference resolution, a call graph, the
  per-class resolved mutation map, and ``Session``-reachability.  The
  DL1xx rules run over this model only — they never touch an AST.

Mutation *sites* are dotted (``repro.core.state.TableState.apply_updates``)
and seam declarations match on dotted-boundary suffix, the same convention
``repro._ownership`` documents for the runtime witness — the static
and dynamic checkers share one seam language by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from tools.daisylint.rules import ENGINE_PREFIX, MUTATOR_METHODS

#: Decorator names recognized as ownership annotations.
OWNERSHIP_DECORATORS = (
    "shared_engine_state",
    "session_owned",
    "immutable_after_init",
)

#: Methods always treated as construction (mirrors ownership.DEFAULT_INIT_METHODS).
DEFAULT_INIT_METHODS = ("__init__", "__post_init__", "__new__")

#: Class-body declaration tables that are exempt from DL104 (they are the
#: ownership metadata itself) alongside dunders and annotations-only names.
_DECLARATION_TABLES = ("MUTATED_UNDER", "MUTATING_ACCESSORS")

#: Constructors whose call produces shared-mutable state when bound at
#: class or module level.
_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
}


# ---------------------------------------------------------------------------
# Summaries (serializable)
# ---------------------------------------------------------------------------


@dataclass
class MutationRecord:
    """One attribute-mutation site, before project-level resolution.

    ``cls_ref`` is either an absolute dotted class name (for ``self``
    mutations — the enclosing class is known at extraction time) or a raw
    reference as written (for annotated parameters/locals), resolved later
    against the defining module's import table.  ``accessor`` is set for
    alias mutations (``obj.seen_for(r).add(t)``); the attribute is then
    looked up in the target class's ``MUTATING_ACCESSORS`` table.
    """

    cls_ref: str
    attr: str | None
    accessor: str | None
    site: str
    kind: str  # "assign" | "augassign" | "del" | "call" | "item" | "alias"
    relpath: str
    line: int
    col: int
    source_line: str
    is_self: bool

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, data: dict) -> "MutationRecord":
        return cls(**data)


@dataclass
class FunctionSummary:
    """A module-level function: what it references and calls."""

    name: str
    refs: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"name": self.name, "refs": self.refs, "calls": self.calls}

    @classmethod
    def from_json(cls, data: dict) -> "FunctionSummary":
        return cls(**data)


@dataclass
class ClassSummary:
    """One class definition: ownership declarations, methods, refs."""

    name: str
    qualname: str
    lineno: int
    col: int
    source_line: str
    bases: list[str] = field(default_factory=list)
    ownership: str | None = None
    extra_init_methods: list[str] = field(default_factory=list)
    mutated_under: dict[str, list[str]] = field(default_factory=dict)
    mutating_accessors: dict[str, str] = field(default_factory=dict)
    methods: list[str] = field(default_factory=list)
    refs: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    #: [name, line, col, source_line] per class-level mutable default.
    mutable_defaults: list[list] = field(default_factory=list)

    @property
    def init_methods(self) -> tuple[str, ...]:
        return DEFAULT_INIT_METHODS + tuple(self.extra_init_methods)

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, data: dict) -> "ClassSummary":
        return cls(**data)


@dataclass
class ModuleSummary:
    """The serializable whole-program-relevant extraction of one file."""

    relpath: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)
    classes: list[ClassSummary] = field(default_factory=list)
    functions: list[FunctionSummary] = field(default_factory=list)
    mutations: list[MutationRecord] = field(default_factory=list)
    #: [name, line, col, source_line] per module-level mutable binding.
    module_mutables: list[list] = field(default_factory=list)
    #: line -> codes disabled there (mirrors ModuleInfo.suppressions).
    suppressions: dict[int, list[str]] = field(default_factory=dict)

    def suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line, [])
        return code in codes or "all" in codes

    def to_json(self) -> dict:
        return {
            "relpath": self.relpath,
            "module": self.module,
            "imports": self.imports,
            "classes": [c.to_json() for c in self.classes],
            "functions": [f.to_json() for f in self.functions],
            "mutations": [m.to_json() for m in self.mutations],
            "module_mutables": self.module_mutables,
            "suppressions": {str(k): v for k, v in self.suppressions.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModuleSummary":
        return cls(
            relpath=data["relpath"],
            module=data["module"],
            imports=dict(data["imports"]),
            classes=[ClassSummary.from_json(c) for c in data["classes"]],
            functions=[FunctionSummary.from_json(f) for f in data["functions"]],
            mutations=[MutationRecord.from_json(m) for m in data["mutations"]],
            module_mutables=[list(m) for m in data["module_mutables"]],
            suppressions={int(k): list(v) for k, v in data["suppressions"].items()},
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path (src-layout aware)."""
    parts = relpath.split("/")
    if parts and parts[0] in ("src", "tests"):
        parts = parts[1:] if parts[0] == "src" else parts
    name = "/".join(parts)
    if name.endswith(".py"):
        name = name[: -len(".py")]
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_refs(node: ast.AST | None, out: list[str]) -> None:
    """Collect every class-like reference inside an annotation expression."""
    if node is None:
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String (forward-reference) annotations: parse and recurse.
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        _annotation_refs(parsed.body, out)
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            ref = _dotted(sub)
            if ref is not None:
                out.append(ref)


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _literal(node: ast.AST) -> object | None:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError, TypeError):
        return None


def _peel(expr: ast.AST) -> tuple[str, list[tuple[str, str | None]]] | None:
    """Decompose a mutated-object expression into (root name, chain).

    The chain runs root-outward; each link is ``("attr", name)``,
    ``("sub", None)`` (subscript) or ``("acc", method)`` (call through a
    method — the accessor-alias case).  Returns None for expressions not
    rooted at a simple name.
    """
    chain: list[tuple[str, str | None]] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            chain.append(("attr", node.attr))
            node = node.value
        elif isinstance(node, ast.Subscript):
            chain.append(("sub", None))
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain.append(("acc", node.func.attr))
            node = node.func.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None
    chain.reverse()
    return node.id, chain


class _FunctionScanner:
    """Walks one function body collecting mutations, refs and call edges.

    The local environment maps variable names to what we know about them:
    ``("instance", ref)`` from annotations or visible construction,
    ``("alias", ref, accessor)`` for values returned by accessor methods.
    Nested functions share the enclosing environment (closures capture it).
    """

    def __init__(
        self,
        summary: "ModuleSummary",
        site: str,
        self_cls: str | None,
        refs: list[str],
        calls: list[str],
        lines: list[str],
    ) -> None:
        self.summary = summary
        self.site = site
        self.self_cls = self_cls  # absolute dotted name of the enclosing class
        self.refs = refs
        self.calls = calls
        self.lines = lines
        self.env: dict[str, tuple] = {}

    def _src(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def _record(
        self, cls_ref: str, attr: str | None, accessor: str | None,
        kind: str, node: ast.AST, is_self: bool,
    ) -> None:
        lineno = getattr(node, "lineno", 1)
        self.summary.mutations.append(MutationRecord(
            cls_ref=cls_ref,
            attr=attr,
            accessor=accessor,
            site=self.site,
            kind=kind,
            relpath=self.summary.relpath,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            source_line=self._src(lineno),
            is_self=is_self,
        ))

    def _resolve_root(self, root: str) -> tuple[str, bool, str | None] | None:
        """(cls_ref, is_self, alias_accessor) for a variable, if typed."""
        if root == "self" and self.self_cls is not None:
            return self.self_cls, True, None
        bound = self.env.get(root)
        if bound is None:
            return None
        if bound[0] == "instance":
            return bound[1], False, None
        return bound[1], False, bound[2]

    def _mutation(self, expr: ast.AST, kind: str, node: ast.AST) -> None:
        """Record a mutation of ``expr`` (the object written through)."""
        peeled = _peel(expr)
        if peeled is None:
            return
        root, chain = peeled
        resolved = self._resolve_root(root)
        if resolved is None:
            return
        cls_ref, is_self, alias_accessor = resolved
        if not chain:
            # The variable itself is mutated (item assignment / mutator on
            # an alias): only meaningful when it aliases an attribute.
            if alias_accessor is not None:
                self._record(cls_ref, None, alias_accessor, "alias", node, is_self)
            return
        step, name = chain[0]
        if alias_accessor is not None:
            # Anything reached through an alias mutates the aliased attr.
            self._record(cls_ref, None, alias_accessor, "alias", node, is_self)
        elif step == "attr":
            self._record(cls_ref, name, None, kind, node, is_self)
        elif step == "acc":
            self._record(cls_ref, None, name, "alias", node, is_self)
        # ("sub",) at chain head on a plain instance var: v[k] = x mutates
        # the object itself, not an attribute of a tracked class — skip.

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        """Track local bindings that type later mutations."""
        if not isinstance(target, ast.Name):
            return
        if isinstance(value, ast.Call):
            func = value.func
            dotted = _dotted(func)
            if dotted is not None:
                # Plausible construction: Foo() / pkg.Foo().  Whether it is
                # really a class is decided at resolution time.
                self.env[target.id] = ("instance", dotted)
                return
            if isinstance(func, ast.Attribute):
                base = _peel(func.value)
                if base is not None and not base[1]:
                    resolved = self._resolve_root(base[0])
                    if resolved is not None and resolved[2] is None:
                        # v = obj.accessor(...) — an alias into obj.
                        self.env[target.id] = ("alias", resolved[0], func.attr)
                        return
        self.env.pop(target.id, None)

    # -- statement walk ----------------------------------------------------

    def scan_body(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value)
            for target in stmt.targets:
                self._scan_target(target, stmt)
            if len(stmt.targets) == 1:
                self._bind(stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            _annotation_refs(stmt.annotation, self.refs)
            if stmt.value is not None:
                self.scan_expr(stmt.value)
                self._scan_target(stmt.target, stmt)
                self._bind(stmt.target, stmt.value)
            if isinstance(stmt.target, ast.Name):
                refs: list[str] = []
                _annotation_refs(stmt.annotation, refs)
                if refs:
                    self.env[stmt.target.id] = ("instance", refs[0])
        elif isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value)
            self._scan_target(stmt.target, stmt, kind="augassign")
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._mutation(target, "del", stmt)
        elif isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self.scan_expr(value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.scan_expr(stmt.iter)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.scan_expr(item.context_expr)
            self.scan_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.scan_body(stmt.body)
            for handler in stmt.handlers:
                self.scan_body(handler.body)
            self.scan_body(stmt.orelse)
            self.scan_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Closures: same environment (they capture it), nested site.
            nested = _FunctionScanner(
                self.summary,
                f"{self.site}.<locals>.{stmt.name}",
                self.self_cls,
                self.refs,
                self.calls,
                self.lines,
            )
            nested.env = self.env  # shared: captured variables stay typed
            for arg in _all_args(stmt.args):
                _annotation_refs(arg.annotation, self.refs)
            nested.scan_body(stmt.body)

    def _scan_target(
        self, target: ast.expr, stmt: ast.stmt, kind: str = "assign"
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, stmt, kind=kind)
        elif isinstance(target, ast.Attribute):
            self._mutation(target, kind, stmt)
        elif isinstance(target, ast.Subscript):
            self._mutation(target, "item", stmt)

    # -- expression walk ---------------------------------------------------

    def scan_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is not None:
                self.calls.append(dotted)
                self.refs.append(dotted)
            elif isinstance(node.func, ast.Attribute):
                method = node.func.attr
                self.calls.append(method)
                if method in MUTATOR_METHODS:
                    self._mutation(node.func.value, "call", node)


def _all_args(args: ast.arguments) -> list[ast.arg]:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def _decorator_ownership(node: ast.expr) -> tuple[str, list[str]] | None:
    """(kind, extra_init_methods) if the decorator is an ownership marker."""
    target = node
    extra: list[str] = []
    if isinstance(target, ast.Call):
        for keyword in target.keywords:
            if keyword.arg == "init_methods":
                value = _literal(keyword.value)
                if isinstance(value, (list, tuple)):
                    extra = [str(v) for v in value]
        target = target.func
    name = _dotted(target)
    if name is None:
        return None
    leaf = name.split(".")[-1]
    if leaf in OWNERSHIP_DECORATORS:
        return leaf, extra
    return None


def _method_env(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, scanner: _FunctionScanner
) -> None:
    """Seed the scanner environment from parameter annotations."""
    for arg in _all_args(fn.args):
        if arg.annotation is None:
            continue
        refs: list[str] = []
        _annotation_refs(arg.annotation, refs)
        scanner.refs.extend(refs)
        primary = [r for r in refs if r.split(".")[-1][:1].isupper()]
        if primary and arg.arg not in ("self", "cls"):
            scanner.env[arg.arg] = ("instance", primary[0])
    _annotation_refs(fn.returns, scanner.refs)


def summarize_module(
    tree: ast.Module,
    relpath: str,
    text: str,
    suppressions: dict[int, set[str]] | None = None,
) -> ModuleSummary:
    """Extract the whole-program-relevant facts from one parsed module."""
    module = module_name_for(relpath)
    lines = text.splitlines()
    summary = ModuleSummary(
        relpath=relpath,
        module=module,
        suppressions={
            line: sorted(codes) for line, codes in (suppressions or {}).items()
        },
    )
    package_parts = module.split(".")[:-1]

    def src(lineno: int) -> str:
        return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""

    # Imports (anywhere in the file; later bindings win, like runtime).
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                summary.imports[bound] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )

    def scan_class(node: ast.ClassDef, qual_prefix: str) -> None:
        qualname = f"{qual_prefix}{node.name}"
        cls = ClassSummary(
            name=node.name,
            qualname=qualname,
            lineno=node.lineno,
            col=node.col_offset,
            source_line=src(node.lineno),
        )
        for base in node.bases:
            ref = _dotted(base)
            if ref is not None:
                cls.bases.append(ref)
                cls.refs.append(ref)
        for decorator in node.decorator_list:
            ownership = _decorator_ownership(decorator)
            if ownership is not None:
                cls.ownership, cls.extra_init_methods = ownership

        abs_name = f"{module}.{qualname}"
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                scan_class(stmt, f"{qualname}.")
            elif isinstance(stmt, ast.AnnAssign):
                _annotation_refs(stmt.annotation, cls.refs)
                if (
                    stmt.value is not None
                    and isinstance(stmt.target, ast.Name)
                    and _is_mutable_value(stmt.value)
                    and not _dl104_exempt(stmt.target.id)
                ):
                    cls.mutable_defaults.append([
                        stmt.target.id, stmt.lineno, stmt.col_offset,
                        src(stmt.lineno),
                    ])
            elif isinstance(stmt, ast.Assign):
                if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                    name = stmt.targets[0].id
                    if name == "MUTATED_UNDER":
                        value = _literal(stmt.value)
                        if isinstance(value, dict):
                            cls.mutated_under = {
                                str(k): [str(s) for s in (
                                    v if isinstance(v, (list, tuple)) else (v,)
                                )]
                                for k, v in value.items()
                            }
                        continue
                    if name == "MUTATING_ACCESSORS":
                        value = _literal(stmt.value)
                        if isinstance(value, dict):
                            cls.mutating_accessors = {
                                str(k): str(v) for k, v in value.items()
                            }
                        continue
                    if _is_mutable_value(stmt.value) and not _dl104_exempt(name):
                        cls.mutable_defaults.append([
                            name, stmt.lineno, stmt.col_offset, src(stmt.lineno),
                        ])
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods.append(stmt.name)
                site = f"{module}.{qualname}.{stmt.name}"
                scanner = _FunctionScanner(
                    summary, site, abs_name, cls.refs, cls.calls, lines
                )
                _method_env(stmt, scanner)
                scanner.scan_body(stmt.body)
        summary.classes.append(cls)

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            scan_class(stmt, "")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionSummary(name=stmt.name)
            site = f"{module}.{stmt.name}"
            scanner = _FunctionScanner(
                summary, site, None, fn.refs, fn.calls, lines
            )
            _method_env(stmt, scanner)
            scanner.scan_body(stmt.body)
            summary.functions.append(fn)
        elif isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if _is_mutable_value(stmt.value) and not _dl104_exempt(name):
                    summary.module_mutables.append([
                        name, stmt.lineno, stmt.col_offset, src(stmt.lineno),
                    ])
        elif isinstance(stmt, ast.AnnAssign):
            if (
                stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and _is_mutable_value(stmt.value)
                and not _dl104_exempt(stmt.target.id)
            ):
                summary.module_mutables.append([
                    stmt.target.id, stmt.lineno, stmt.col_offset, src(stmt.lineno),
                ])
    return summary


def _dl104_exempt(name: str) -> bool:
    return name.startswith("__") or name in _DECLARATION_TABLES


# ---------------------------------------------------------------------------
# The merged model
# ---------------------------------------------------------------------------


@dataclass
class ResolvedMutation:
    """A mutation record with its class and attribute pinned down."""

    cls_key: str
    attr: str
    record: MutationRecord


class ProjectModel:
    """The whole-program view: symbol table, call graph, mutation map."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.summaries: list[ModuleSummary] = sorted(
            summaries, key=lambda s: s.relpath
        )
        self.by_module: dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries
        }
        #: absolute dotted class name -> (summary, ClassSummary)
        self.classes: dict[str, tuple[ModuleSummary, ClassSummary]] = {}
        self._by_simple_name: dict[str, list[str]] = {}
        #: absolute dotted function name -> (summary, FunctionSummary)
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        for summary in self.summaries:
            for cls in summary.classes:
                key = f"{summary.module}.{cls.qualname}"
                self.classes[key] = (summary, cls)
                self._by_simple_name.setdefault(cls.name, []).append(key)
            for fn in summary.functions:
                self.functions[f"{summary.module}.{fn.name}"] = (summary, fn)
        #: call graph: dotted caller site -> sorted callee refs (raw)
        self.call_graph: dict[str, list[str]] = {}
        for summary in self.summaries:
            for cls in summary.classes:
                key = f"{summary.module}.{cls.qualname}"
                self.call_graph[key] = sorted(set(cls.calls))
            for fn in summary.functions:
                self.call_graph[f"{summary.module}.{fn.name}"] = sorted(set(fn.calls))
        self.mutations: list[ResolvedMutation] = self._resolve_mutations()
        self._mutation_map: dict[str, list[ResolvedMutation]] = {}
        for mutation in self.mutations:
            self._mutation_map.setdefault(mutation.cls_key, []).append(mutation)

    # -- resolution --------------------------------------------------------

    def resolve_class(self, ref: str, summary: ModuleSummary) -> str | None:
        """Resolve a raw reference in ``summary``'s namespace to a class key."""
        if ref in self.classes:
            return ref
        head, _, rest = ref.partition(".")
        # Local class (possibly nested: Outer.Inner).
        local = f"{summary.module}.{ref}"
        if local in self.classes:
            return local
        # Through the import table.
        target = summary.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
            if dotted in self.classes:
                return dotted
            # Re-export: ``from repro.core import TableState`` binds a name
            # whose import target is not the defining module.  Fall through
            # to the unique-simple-name match below.
        leaf = ref.split(".")[-1]
        candidates = self._by_simple_name.get(leaf, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_function(self, ref: str, summary: ModuleSummary) -> str | None:
        if ref in self.functions:
            return ref
        local = f"{summary.module}.{ref}"
        if local in self.functions:
            return local
        head, _, rest = ref.partition(".")
        target = summary.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
            if dotted in self.functions:
                return dotted
        return None

    def class_summary(self, key: str) -> ClassSummary:
        return self.classes[key][1]

    def base_chain(self, key: str) -> list[str]:
        """The class plus its resolved bases, breadth-first, cycle-safe."""
        out: list[str] = []
        queue = [key]
        seen: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            out.append(current)
            summary, cls = self.classes[current]
            for base in cls.bases:
                resolved = self.resolve_class(base, summary)
                if resolved is not None:
                    queue.append(resolved)
        return out

    def ownership_of(self, key: str) -> tuple[str, ClassSummary] | None:
        """(kind, declaring ClassSummary) from the class or nearest base."""
        for candidate in self.base_chain(key):
            cls = self.class_summary(candidate)
            if cls.ownership is not None:
                return cls.ownership, cls
        return None

    def _resolve_mutations(self) -> list[ResolvedMutation]:
        out: list[ResolvedMutation] = []
        for summary in self.summaries:
            for record in summary.mutations:
                key = (
                    record.cls_ref
                    if record.is_self and record.cls_ref in self.classes
                    else self.resolve_class(record.cls_ref, summary)
                )
                if key is None:
                    continue
                attr = record.attr
                if attr is None and record.accessor is not None:
                    # Alias mutation: meaningful only when the accessor is
                    # declared (on the class or an annotated base).
                    attr = None
                    for candidate in self.base_chain(key):
                        accessors = self.class_summary(candidate).mutating_accessors
                        if record.accessor in accessors:
                            attr = accessors[record.accessor]
                            break
                    if attr is None:
                        continue
                if attr is None:
                    continue
                out.append(ResolvedMutation(cls_key=key, attr=attr, record=record))
        return out

    def mutations_of(self, key: str) -> list[ResolvedMutation]:
        """Every resolved mutation of ``key``'s attributes, project-wide.

        Includes mutations recorded against base classes (a seam declared
        on ``ExecutorPool`` governs ``ThreadPool`` writes and vice versa).
        """
        chain = set(self.base_chain(key))
        out = [m for c in chain for m in self._mutation_map.get(c, [])]
        out.sort(key=lambda m: (m.record.relpath, m.record.line, m.record.col))
        return out

    def post_init_mutations(self, key: str) -> list[ResolvedMutation]:
        cls = self.class_summary(key)
        init_methods = set(cls.init_methods)
        out = []
        for mutation in self._mutation_map.get(key, []):
            leaf = mutation.record.site.split(".")[-1]
            if mutation.record.is_self and leaf in init_methods:
                continue
            out.append(mutation)
        return out

    # -- reachability ------------------------------------------------------

    def session_reachable(self) -> set[str]:
        """Class keys reachable from ``Session`` via type refs and calls."""
        roots = [
            key for key in self.classes
            if self.class_summary(key).name == "Session"
            and self.classes[key][0].relpath.startswith(ENGINE_PREFIX)
        ]
        reached: set[str] = set()
        fn_memo: dict[str, set[str]] = {}

        def function_refs(fn_key: str, stack: set[str]) -> set[str]:
            if fn_key in fn_memo:
                return fn_memo[fn_key]
            if fn_key in stack:
                return set()
            stack.add(fn_key)
            summary, fn = self.functions[fn_key]
            refs: set[str] = set()
            for ref in fn.refs:
                resolved = self.resolve_class(ref, summary)
                if resolved is not None:
                    refs.add(resolved)
            for call in fn.calls:
                callee = self.resolve_function(call, summary)
                if callee is not None:
                    refs |= function_refs(callee, stack)
            stack.discard(fn_key)
            fn_memo[fn_key] = refs
            return refs

        queue = list(roots)
        while queue:
            key = queue.pop()
            if key in reached or key not in self.classes:
                continue
            reached.add(key)
            summary, cls = self.classes[key]
            neighbors: set[str] = set()
            for ref in cls.refs:
                resolved = self.resolve_class(ref, summary)
                if resolved is not None:
                    neighbors.add(resolved)
            for call in cls.calls:
                callee = self.resolve_function(call, summary)
                if callee is not None:
                    neighbors |= function_refs(callee, set())
            for base in cls.bases:
                resolved = self.resolve_class(base, summary)
                if resolved is not None:
                    neighbors.add(resolved)
            queue.extend(neighbors - reached)
        return reached

    # -- reporting ---------------------------------------------------------

    def mutation_report(self) -> dict:
        """Per-class attribute-mutation map (the annotation-authoring aid)."""
        report: dict[str, dict] = {}
        for key in sorted(self._mutation_map):
            cls = self.class_summary(key)
            attrs: dict[str, list[str]] = {}
            for mutation in self._mutation_map[key]:
                site = mutation.record.site
                attrs.setdefault(mutation.attr, [])
                if site not in attrs[mutation.attr]:
                    attrs[mutation.attr].append(site)
            report[key] = {
                "ownership": cls.ownership,
                "attrs": {a: sorted(s) for a, s in sorted(attrs.items())},
            }
        return report


# ---------------------------------------------------------------------------
# Seam matching (the shared convention — see repro/_ownership.py)
# ---------------------------------------------------------------------------


def site_candidates(site: str) -> Iterator[str]:
    """The site plus each enclosing site (peeling ``.<locals>.fn`` layers).

    A closure inside a seam method inherits the seam — the runtime witness
    sees the seam frame on the stack; the static check peels the nesting.
    """
    yield site
    while ".<locals>." in site:
        site = site.rsplit(".<locals>.", 1)[0]
        yield site


def seam_matches(seam: str, site: str) -> bool:
    if not seam:
        return False
    for candidate in site_candidates(site):
        if candidate == seam or candidate.endswith("." + seam):
            return True
    return False


def site_in_seams(
    site: str, seams: Iterable[str], init_methods: Iterable[str], class_name: str
) -> bool:
    for candidate in site_candidates(site):
        leaf = candidate.rsplit(".", 1)[-1]
        if leaf in init_methods and f".{class_name}." in f".{candidate}.":
            return True
    return any(seam_matches(seam, site) for seam in seams)


__all__ = [
    "OWNERSHIP_DECORATORS",
    "DEFAULT_INIT_METHODS",
    "MutationRecord",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "ResolvedMutation",
    "ProjectModel",
    "module_name_for",
    "summarize_module",
    "site_candidates",
    "seam_matches",
    "site_in_seams",
]
