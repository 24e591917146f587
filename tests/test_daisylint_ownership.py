"""daisylint DL1xx ownership rules, the whole-program model, and the
--jobs/--cache/--check-baseline CLI mechanics.

Rule fixtures are linted at pretend engine paths (``src/repro/...``) the
same way ``tests/test_daisylint.py`` does for the file rules; project
rules additionally get multi-module fixtures exercising import
resolution, base-class seam inheritance, and Session reachability.  The
seeded-bug test at the bottom is the *static* half of the two-layer
proof: it lints ``tests/fixtures/seeded_race.py`` — the very module
``tests/test_witness.py`` imports to make the runtime witness fire — and
asserts DL101/DL102 flag the same functions.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.daisylint import cli  # noqa: E402
from tools.daisylint import core as dl  # noqa: E402
from tools.daisylint import ownership_rules  # noqa: E402  (registers DL10x)
from tools.daisylint import rules as dl_rules  # noqa: E402  (registers DL00x)
from tools.daisylint.cache import FileCache  # noqa: E402
from tools.daisylint.project import (  # noqa: E402
    ModuleSummary,
    ProjectModel,
    module_name_for,
    seam_matches,
    site_candidates,
    site_in_seams,
    summarize_module,
)

SEEDED_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "seeded_race.py"
ISOLATION_FIXTURE = (
    Path(__file__).resolve().parent / "fixtures" / "seeded_isolation.py"
)


def summarize(source: str, relpath: str) -> ModuleSummary:
    module = dl.ModuleInfo.parse(Path(relpath), relpath, textwrap.dedent(source))
    return summarize_module(
        module.tree, relpath, module.text, suppressions=module.suppressions
    )


def project_findings(
    sources: dict[str, str], codes: tuple[str, ...]
) -> list[dl.Finding]:
    model = ProjectModel(
        [summarize(src, rel) for rel, src in sources.items()]
    )
    out: list[dl.Finding] = []
    for code in codes:
        out.extend(dl.RULES[code].check_project(model))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return out


def codes_of(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# Shared seam-language helpers (used identically by lint and witness)
# ---------------------------------------------------------------------------


class TestSeamLanguage:
    def test_module_name_for_src_layout(self):
        assert module_name_for("src/repro/core/state.py") == "repro.core.state"
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("tools/daisylint/core.py") == "tools.daisylint.core"

    def test_site_candidates_peel_closures(self):
        site = "repro.service.scheduler.DaisyService.start.<locals>.loop"
        assert list(site_candidates(site)) == [
            site, "repro.service.scheduler.DaisyService.start"
        ]

    def test_seam_matches_on_dotted_boundary_only(self):
        assert seam_matches("TableState.mark_seen",
                            "repro.core.state.TableState.mark_seen")
        assert not seam_matches("State.mark_seen",
                                "repro.core.state.TableState.mark_seen")
        assert not seam_matches("", "repro.core.state.TableState.mark_seen")

    def test_init_methods_require_the_class_in_the_site(self):
        # __init__ of *another* class is not this class's construction.
        assert site_in_seams(
            "repro.m.Owner.__init__", (), ("__init__",), "Owner"
        )
        assert not site_in_seams(
            "repro.m.Other.__init__", (), ("__init__",), "Owner"
        )


# ---------------------------------------------------------------------------
# DL101 — shared_engine_state seam enforcement
# ---------------------------------------------------------------------------


SHARED_CLASS = """
    from repro._ownership import shared_engine_state

    @shared_engine_state
    class Matrix:
        MUTATED_UNDER = {"rows": ("Matrix.rebuild",)}

        def __init__(self):
            self.rows = []

        def rebuild(self):
            self.rows = [1]
"""


class TestDL101:
    def test_write_inside_seam_and_init_is_clean(self):
        findings = project_findings(
            {"src/repro/engine/m.py": SHARED_CLASS}, ("DL101",)
        )
        assert findings == []

    def test_write_outside_seam_fires(self):
        source = SHARED_CLASS + """
        def sneaky(m: Matrix):
            m.rows = [2]
    """
        findings = project_findings(
            {"src/repro/engine/m.py": source}, ("DL101",)
        )
        assert codes_of(findings) == ["DL101"]
        assert "outside its declared seam" in findings[0].message

    def test_undeclared_attribute_fires(self):
        source = SHARED_CLASS + """
        def sneaky(m: Matrix):
            m.cols = [2]
    """
        findings = project_findings(
            {"src/repro/engine/m.py": source}, ("DL101",)
        )
        assert codes_of(findings) == ["DL101"]
        assert "no MUTATED_UNDER seam declaration" in findings[0].message

    def test_cross_module_write_resolves_through_imports(self):
        caller = """
            from repro.engine.m import Matrix

            def helper(m: Matrix):
                m.rows = [3]
        """
        findings = project_findings(
            {
                "src/repro/engine/m.py": SHARED_CLASS,
                "src/repro/engine/caller.py": caller,
            },
            ("DL101",),
        )
        assert codes_of(findings) == ["DL101"]
        assert findings[0].path == "src/repro/engine/caller.py"

    def test_seam_method_on_subclass_inherits_contract(self):
        source = SHARED_CLASS + """
        class Sparse(Matrix):
            def corrupt(self):
                self.rows = [9]
    """
        findings = project_findings(
            {"src/repro/engine/m.py": source}, ("DL101",)
        )
        assert codes_of(findings) == ["DL101"]

    def test_accessor_alias_mutation_attributed_to_caller(self):
        source = """
            from repro._ownership import shared_engine_state

            @shared_engine_state
            class State:
                MUTATED_UNDER = {"seen": ("State.mark",)}
                MUTATING_ACCESSORS = {"seen_for": "seen"}

                def __init__(self):
                    self.seen = {}

                def seen_for(self, key):
                    return self.seen.setdefault(key, set())

                def mark(self, key, t):
                    self.seen_for(key).add(t)

            def rogue(state: State, key, t):
                state.seen_for(key).add(t)
        """
        findings = project_findings(
            {"src/repro/engine/s.py": source}, ("DL101",)
        )
        assert codes_of(findings) == ["DL101"]
        assert "rogue" in findings[0].message

    def test_suppression_comment_silences_via_run(self, tmp_path):
        source = textwrap.dedent(SHARED_CLASS) + textwrap.dedent("""
        def sneaky(m: Matrix):
            m.rows = [2]  # daisylint: disable=DL101 - fixture exemption
        """)
        target = tmp_path / "src" / "repro" / "engine"
        target.mkdir(parents=True)
        (target / "m.py").write_text(source)
        result = dl.run([tmp_path / "src"], tmp_path)
        assert [f.code for f in result.findings] == []


# ---------------------------------------------------------------------------
# DL102 — immutable_after_init
# ---------------------------------------------------------------------------


class TestDL102:
    def test_post_init_write_fires_and_init_is_clean(self):
        source = """
            from repro._ownership import immutable_after_init

            @immutable_after_init
            class Plan:
                def __init__(self):
                    self.steps = ()

            def patch(plan: Plan):
                plan.steps = (1,)
        """
        findings = project_findings(
            {"src/repro/engine/p.py": source}, ("DL102",)
        )
        assert codes_of(findings) == ["DL102"]
        assert "after construction" in findings[0].message

    def test_declared_builder_counts_as_construction(self):
        source = """
            from repro._ownership import immutable_after_init

            @immutable_after_init(init_methods=("freeze",))
            class Plan:
                def __init__(self):
                    self.steps = ()

                def freeze(self):
                    self.steps = (1,)
        """
        findings = project_findings(
            {"src/repro/engine/p.py": source}, ("DL102",)
        )
        assert findings == []


# ---------------------------------------------------------------------------
# DL103 — Session-reachable classes must declare ownership
# ---------------------------------------------------------------------------


DL103_SOURCES = {
    "src/repro/api/session.py": """
        from repro.engine.cache import PlanCache

        class Session:
            def __init__(self):
                self.cache = PlanCache()
    """,
    "src/repro/engine/cache.py": """
        class PlanCache:
            def __init__(self):
                self.plans = {}

            def store(self, key, plan):
                self.plans = {**self.plans, key: plan}
    """,
}


class TestDL103:
    def test_unannotated_mutating_reachable_class_fires(self):
        findings = project_findings(DL103_SOURCES, ("DL103",))
        assert codes_of(findings) == ["DL103"]
        assert "PlanCache" in findings[0].message

    def test_annotated_class_is_clean(self):
        sources = dict(DL103_SOURCES)
        sources["src/repro/engine/cache.py"] = """
            from repro._ownership import session_owned

            @session_owned
            class PlanCache:
                def __init__(self):
                    self.plans = {}

                def store(self, key, plan):
                    self.plans = {**self.plans, key: plan}
        """
        assert project_findings(sources, ("DL103",)) == []

    def test_mutation_free_class_needs_no_annotation(self):
        sources = dict(DL103_SOURCES)
        sources["src/repro/engine/cache.py"] = """
            class PlanCache:
                def __init__(self):
                    self.plans = {}

                def get(self, key):
                    return self.plans.get(key)
        """
        assert project_findings(sources, ("DL103",)) == []

    def test_unreachable_class_needs_no_annotation(self):
        sources = {"src/repro/engine/cache.py": DL103_SOURCES[
            "src/repro/engine/cache.py"
        ]}
        assert project_findings(sources, ("DL103",)) == []


# ---------------------------------------------------------------------------
# DL104 — class/module-level mutable state
# ---------------------------------------------------------------------------


class TestDL104:
    def test_class_and_module_mutables_fire(self):
        source = """
            REGISTRY = {}

            class Pool:
                workers = []
        """
        findings = project_findings(
            {"src/repro/engine/pool.py": source}, ("DL104",)
        )
        assert codes_of(findings) == ["DL104", "DL104"]

    def test_immutable_and_declaration_tables_are_exempt(self):
        source = """
            from types import MappingProxyType

            FROZEN = frozenset({1})
            TABLE = MappingProxyType({"a": 1})
            _NAMES = ("x", "y")

            class Pool:
                MUTATED_UNDER = {"x": ("Pool.run",)}
                MUTATING_ACCESSORS = {"get_x": "x"}
                __slots__ = ["x"]
        """
        findings = project_findings(
            {"src/repro/engine/pool.py": source}, ("DL104",)
        )
        assert findings == []

    def test_outside_engine_prefix_is_out_of_scope(self):
        findings = project_findings(
            {"tools/daisylint/thing.py": "REGISTRY = {}\n"}, ("DL104",)
        )
        assert findings == []


# ---------------------------------------------------------------------------
# The seeded bug: static half (dynamic half in tests/test_witness.py)
# ---------------------------------------------------------------------------


class TestSeededBugStatic:
    def test_dl101_and_dl102_fire_on_the_seeded_fixture(self):
        source = SEEDED_FIXTURE.read_text()
        findings = project_findings(
            {"src/repro/engine/seeded_race.py": source}, ("DL101", "DL102")
        )
        by_code = {f.code: f for f in findings}
        assert sorted(by_code) == ["DL101", "DL102"]
        assert "SeededCursor.position" in by_code["DL101"].message
        assert "rogue_write" in by_code["DL101"].message
        assert "SeededFrozen" in by_code["DL102"].message
        assert "corrupt" in by_code["DL102"].message

    def test_legitimate_seam_write_is_not_flagged(self):
        source = SEEDED_FIXTURE.read_text()
        findings = project_findings(
            {"src/repro/engine/seeded_race.py": source}, ("DL101",)
        )
        assert all(
            "self.position += 1" not in f.source_line for f in findings
        )


class TestSeededIsolationStatic:
    """Static half of the torn-read proof: daisylint DL101 flags the same
    out-of-seam epoch/marker writes the runtime witness and the snapshot
    primitives convict dynamically (``tests/test_service.py``)."""

    def test_dl101_fires_on_every_torn_bump_write(self):
        source = ISOLATION_FIXTURE.read_text()
        findings = project_findings(
            {"src/repro/engine/seeded_isolation.py": source}, ("DL101",)
        )
        bump_findings = [f for f in findings if "torn_bump" in f.message]
        assert len(bump_findings) == 3
        attrs = " ".join(f.message for f in bump_findings)
        assert "SeededEpochTable.write_in_progress" in attrs
        assert "SeededEpochTable.data_epoch" in attrs

    def test_the_declared_apply_seam_is_not_flagged(self):
        source = ISOLATION_FIXTURE.read_text()
        findings = project_findings(
            {"src/repro/engine/seeded_isolation.py": source}, ("DL101",)
        )
        # Every finding sits in the seeded rogue function; the identical
        # writes inside the declared ``apply`` seam produce none.
        assert findings, "the seeded bug must fire"
        assert all("mutated at" in f.message for f in findings)
        assert all(
            f.message.partition("mutated at ")[2].startswith(
                "repro.engine.seeded_isolation.torn_bump"
            )
            for f in findings
        )


# ---------------------------------------------------------------------------
# CLI: --jobs / --cache parity, --check-baseline
# ---------------------------------------------------------------------------


def _fake_repo(tmp_path: Path) -> Path:
    engine = tmp_path / "src" / "repro" / "engine"
    engine.mkdir(parents=True)
    (engine / "m.py").write_text(textwrap.dedent(SHARED_CLASS) + textwrap.dedent("""
    def sneaky(m: Matrix):
        m.rows = [2]
    """))
    (engine / "other.py").write_text("STATE = {}\n")
    (engine / "clean.py").write_text("def ok() -> int:\n    return 1\n")
    return tmp_path


def _cli_json(tmp_path: Path, out_name: str, *extra: str) -> tuple[int, dict]:
    out = tmp_path / out_name
    code = cli.main([
        "src", "--root", str(tmp_path), "--no-baseline",
        "--json-output", str(out), *extra,
    ])
    return code, json.loads(out.read_text())


class TestCliParity:
    def test_jobs_and_cache_runs_are_byte_identical(self, tmp_path):
        repo = _fake_repo(tmp_path)
        cache_file = tmp_path / "cache.json"
        code1, serial = _cli_json(repo, "serial.json")
        code2, jobs = _cli_json(repo, "jobs.json", "--jobs", "2")
        code3, cold = _cli_json(
            repo, "cold.json", "--cache", str(cache_file)
        )
        code4, warm = _cli_json(
            repo, "warm.json", "--cache", str(cache_file)
        )
        assert code1 == code2 == code3 == code4 == 1
        assert serial == jobs == cold == warm
        assert {f["code"] for f in serial["new"]} == {"DL101", "DL104"}

    def test_warm_cache_actually_hits(self, tmp_path):
        repo = _fake_repo(tmp_path)
        cache_file = tmp_path / "cache.json"
        _cli_json(repo, "cold.json", "--cache", str(cache_file))
        cache = FileCache.load(cache_file)
        for path, rel in dl.iter_python_files([repo / "src"], repo):
            assert cache.get(path, rel) is not None, rel
        assert cache.hits == 3

    def test_edited_file_invalidates_its_entry(self, tmp_path):
        repo = _fake_repo(tmp_path)
        cache_file = tmp_path / "cache.json"
        _cli_json(repo, "cold.json", "--cache", str(cache_file))
        edited = repo / "src" / "repro" / "engine" / "clean.py"
        edited.write_text("def ok() -> int:\n    return 2\n")
        cache = FileCache.load(cache_file)
        assert cache.get(edited, "src/repro/engine/clean.py") is None

    def test_check_baseline_prunes_stale_entries(self, tmp_path):
        repo = _fake_repo(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        dl.Baseline({"deadbeefdeadbeef": {
            "code": "DL104", "path": "src/repro/engine/gone.py",
            "line": 1, "col": 0, "message": "gone", "source_line": "",
        }}).save(baseline_path)
        code = cli.main([
            "src", "--root", str(repo),
            "--baseline", str(baseline_path), "--check-baseline",
        ])
        assert code == 1
        pruned = json.loads(baseline_path.read_text())
        assert "deadbeefdeadbeef" not in pruned["entries"]

    def test_check_baseline_passes_when_every_entry_fires(self, tmp_path):
        repo = _fake_repo(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        result = dl.run([repo / "src"], repo)
        dl.Baseline.from_findings(
            [(d, f) for d, f in dl.fingerprint_findings(result.findings)
             if f.code not in dl.NEVER_BASELINE]
        ).save(baseline_path)
        code = cli.main([
            "src", "--root", str(repo),
            "--baseline", str(baseline_path), "--check-baseline",
        ])
        assert code == 0
