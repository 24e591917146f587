"""daisylint: per-rule fixture tests, suppression/baseline mechanics, CLI,
and the meta-gate that the repo's own src/ tree lints clean.

Each rule gets at least one positive fixture (the defect fires) and one
negative fixture (the idiomatic form stays silent), plus scope checks —
rules only apply to the repo paths where their invariant binds.  The
subprocess test at the bottom is the regression lock for the
PYTHONHASHSEED-dependent iteration orders DL001 flushed out of
``detection/maintenance.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.daisylint import core as dl  # noqa: E402
from tools.daisylint import cli  # noqa: E402
from tools.daisylint import rules as dl_rules  # noqa: E402  (registers rules)

DETECTION = "src/repro/detection/fixture.py"
ENGINE = "src/repro/engine/fixture.py"
OUTSIDE = "src/repro/metrics/fixture.py"


def lint(source: str, relpath: str = DETECTION, codes: tuple[str, ...] | None = None):
    """Lint a dedented source string as if it lived at ``relpath``."""
    module = dl.ModuleInfo.parse(Path(relpath), relpath, textwrap.dedent(source))
    rules = [dl.RULES[c] for c in codes] if codes else None
    return dl.lint_module(module, rules=rules)


def codes_of(findings) -> list[str]:
    return [f.code for f in findings]


class TestRegistry:
    def test_full_rule_suite_registered(self):
        assert sorted(dl.RULES) == [f"DL00{i}" for i in (1, *range(3, 10))] + [
            f"DL10{i}" for i in range(1, 5)
        ]

    def test_rules_carry_metadata(self):
        for rule in dl.iter_rules():
            assert rule.code and rule.name and rule.rationale

    def test_duplicate_code_rejected(self):
        class Clash(dl.Rule):
            code = "DL001"

        with pytest.raises(ValueError, match="duplicate"):
            dl.register(Clash)


class TestDL001SetIteration:
    def test_for_over_set_flagged(self):
        findings = lint(
            """
            def f():
                s = {1, 2, 3}
                out = []
                for x in s:
                    out.append(x)
                return out
            """
        )
        assert codes_of(findings) == ["DL001"]

    def test_sorted_wrap_is_clean(self):
        findings = lint(
            """
            def f():
                s = {1, 2, 3}
                out = []
                for x in sorted(s):
                    out.append(x)
                return out
            """
        )
        assert findings == []

    def test_list_call_over_set_flagged(self):
        findings = lint("s = {1, 2}\nmaterialized = list(s)\n")
        assert codes_of(findings) == ["DL001"]

    def test_comprehension_over_set_flagged(self):
        findings = lint(
            """
            def f():
                s = set([3, 1])
                return [x + 1 for x in s]
            """
        )
        assert codes_of(findings) == ["DL001"]

    def test_set_comprehension_consumer_is_clean(self):
        # set -> set cannot leak order.
        findings = lint(
            """
            def f():
                s = {1, 2}
                return {x + 1 for x in s}
            """
        )
        assert findings == []

    def test_order_insensitive_consumer_is_clean(self):
        findings = lint(
            """
            def f():
                s = {1, 2}
                return sum(x for x in s)
            """
        )
        assert findings == []

    def test_join_over_set_flagged(self):
        findings = lint(
            """
            def f():
                names = {"b", "a"}
                return ",".join(names)
            """
        )
        assert codes_of(findings) == ["DL001"]

    def test_rebound_name_disqualifies(self):
        # One non-set binding makes the name unknown: no finding.
        findings = lint(
            """
            def f(rows):
                s = {1, 2}
                s = rows
                return [x for x in s]
            """
        )
        assert findings == []

    def test_rule_scoped_to_result_packages(self):
        source = "s = {1, 2}\nmaterialized = list(s)\n"
        assert codes_of(lint(source, relpath=DETECTION)) == ["DL001"]
        assert lint(source, relpath=OUTSIDE) == []


class TestDL003WallClock:
    def test_time_call_flagged(self):
        findings = lint(
            "import time\n\nstamp = time.perf_counter()\n", relpath=ENGINE
        )
        assert codes_of(findings) == ["DL003"]

    def test_from_import_alias_flagged(self):
        findings = lint(
            "from time import perf_counter as pc\n\nstamp = pc()\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL003"]

    def test_datetime_now_flagged(self):
        findings = lint(
            "import datetime\n\nstamp = datetime.datetime.now()\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL003"]

    def test_timing_module_is_exempt(self):
        source = "import time\n\nstamp = time.perf_counter()\n"
        assert lint(source, relpath="src/repro/metrics/timing.py") == []

    def test_non_clock_time_attr_is_clean(self):
        findings = lint("import time\n\nzone = time.tzname\n", relpath=ENGINE)
        assert findings == []


class TestDL004UnseededRandom:
    def test_global_random_flagged(self):
        findings = lint(
            "import random\n\nx = random.random()\n", relpath=ENGINE
        )
        assert codes_of(findings) == ["DL004"]

    def test_unseeded_random_instance_flagged(self):
        findings = lint(
            "import random\n\nrng = random.Random()\n", relpath=ENGINE
        )
        assert codes_of(findings) == ["DL004"]

    def test_seeded_random_instance_is_clean(self):
        findings = lint(
            "import random\n\nrng = random.Random(42)\n", relpath=ENGINE
        )
        assert findings == []

    def test_numpy_global_rng_flagged(self):
        findings = lint(
            "import numpy as np\n\nx = np.random.rand(3)\n", relpath=ENGINE
        )
        assert codes_of(findings) == ["DL004"]


class TestDL005OverbroadExcept:
    def test_bare_except_flagged(self):
        findings = lint(
            """
            def f():
                try:
                    work()
                except:
                    pass
            """,
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL005"]

    def test_broad_except_without_reraise_flagged(self):
        findings = lint(
            """
            def f():
                try:
                    work()
                except Exception:
                    return None
            """,
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL005"]

    def test_broad_except_with_reraise_is_clean(self):
        findings = lint(
            """
            def f():
                try:
                    work()
                except Exception as exc:
                    log(exc)
                    raise
            """,
            relpath=ENGINE,
        )
        assert findings == []

    def test_import_guard_is_clean(self):
        findings = lint(
            """
            try:
                import numpy
            except Exception:
                numpy = None
            """,
            relpath=ENGINE,
        )
        assert findings == []

    def test_narrow_except_is_clean(self):
        findings = lint(
            """
            def f():
                try:
                    work()
                except KeyError:
                    return None
            """,
            relpath=ENGINE,
        )
        assert findings == []


class TestDL006MutableDefault:
    def test_list_default_flagged(self):
        findings = lint("def f(xs=[]):\n    return xs\n", relpath=ENGINE)
        assert codes_of(findings) == ["DL006"]

    def test_dict_call_default_flagged(self):
        findings = lint("def f(opts=dict()):\n    return opts\n", relpath=ENGINE)
        assert codes_of(findings) == ["DL006"]

    def test_none_default_is_clean(self):
        findings = lint(
            "def f(xs=None):\n    return xs if xs is not None else []\n",
            relpath=ENGINE,
        )
        assert findings == []

    def test_tuple_default_is_clean(self):
        findings = lint("def f(xs=()):\n    return xs\n", relpath=ENGINE)
        assert findings == []


class TestDL007CounterBypass:
    def test_call_without_counter_flagged(self):
        findings = lint("delta = relax_fd(state, rule)\n", relpath=ENGINE)
        assert codes_of(findings) == ["DL007"]

    def test_counter_kwarg_is_clean(self):
        findings = lint(
            "delta = relax_fd(state, rule, counter=counter)\n", relpath=ENGINE
        )
        assert findings == []

    def test_kwargs_passthrough_is_clean(self):
        findings = lint(
            "def f(state, rule, **kw):\n    return relax_fd(state, rule, **kw)\n",
            relpath=ENGINE,
        )
        assert findings == []

    def test_unrelated_call_is_clean(self):
        findings = lint("x = relax_everything(state)\n", relpath=ENGINE)
        assert findings == []


KERNELS = "src/repro/relation/kernels.py"


class TestDL008KernelOracleRegistry:
    def test_missing_registry_flagged(self):
        findings = lint("def sorted_pairs(col):\n    return col\n", relpath=KERNELS)
        assert codes_of(findings) == ["DL008"]

    def test_complete_registry_is_clean(self):
        findings = lint(
            """
            def sorted_pairs(col):
                return col

            KERNEL_ORACLES = {"sorted_pairs": "sorted((v, p)) over cells"}
            """,
            relpath=KERNELS,
        )
        assert findings == []

    def test_unregistered_public_kernel_flagged(self):
        findings = lint(
            """
            def sorted_pairs(col):
                return col

            def group_indices(col):
                return col

            KERNEL_ORACLES = {"sorted_pairs": "oracle"}
            """,
            relpath=KERNELS,
        )
        assert codes_of(findings) == ["DL008"]
        assert "group_indices" in findings[0].message

    def test_orphan_registry_entry_flagged(self):
        findings = lint(
            """
            def sorted_pairs(col):
                return col

            KERNEL_ORACLES = {"sorted_pairs": "oracle", "ghost": "oracle"}
            """,
            relpath=KERNELS,
        )
        assert codes_of(findings) == ["DL008"]
        assert "ghost" in findings[0].message

    def test_empty_oracle_string_flagged(self):
        findings = lint(
            """
            def sorted_pairs(col):
                return col

            KERNEL_ORACLES = {"sorted_pairs": ""}
            """,
            relpath=KERNELS,
        )
        assert codes_of(findings) == ["DL008"]

    def test_private_functions_exempt(self):
        findings = lint(
            """
            def _helper(col):
                return col

            KERNEL_ORACLES = {}
            """,
            relpath=KERNELS,
        )
        assert findings == []

    def test_rule_only_applies_to_kernels_module(self):
        findings = lint(
            "def sorted_pairs(col):\n    return col\n", relpath=DETECTION
        )
        assert "DL008" not in codes_of(findings)


class TestDL009RawStorageAccess:
    def test_open_call_flagged(self):
        findings = lint(
            "def load(path):\n    with open(path) as h:\n        return h.read()\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL009"]

    def test_sqlite3_import_and_connect_flagged(self):
        findings = lint(
            "import sqlite3\n\nconn = sqlite3.connect(':memory:')\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL009", "DL009"]

    def test_sqlite3_import_alias_flagged(self):
        findings = lint(
            "import sqlite3 as sq\n\nconn = sq.connect(':memory:')\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL009", "DL009"]

    def test_mmap_from_import_flagged(self):
        findings = lint("from mmap import mmap\n", relpath=ENGINE)
        assert codes_of(findings) == ["DL009"]

    def test_storage_package_is_exempt(self):
        source = (
            "import sqlite3\nimport mmap\n\n"
            "def load(path):\n    with open(path, 'rb') as h:\n"
            "        return h.read()\n"
        )
        assert lint(source, relpath="src/repro/storage/fixture.py") == []

    def test_tools_and_tests_are_exempt(self):
        source = "data = open('x').read()\n"
        assert lint(source, relpath="tools/bench/fixture.py") == []
        assert lint(source, relpath="tests/fixture.py") == []

    def test_method_named_open_is_clean(self):
        findings = lint(
            "def f(store):\n    return store.open()\n", relpath=ENGINE
        )
        assert findings == []


class TestSuppression:
    def test_inline_disable_suppresses(self):
        findings = lint(
            "def f(xs=[]):  # daisylint: disable=DL006\n    return xs\n",
            relpath=ENGINE,
        )
        assert findings == []

    def test_disable_other_code_does_not_suppress(self):
        findings = lint(
            "def f(xs=[]):  # daisylint: disable=DL001\n    return xs\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL006"]

    def test_disable_all_suppresses_everything(self):
        findings = lint(
            "def f(xs=[]):  # daisylint: disable=all\n    return xs\n",
            relpath=ENGINE,
        )
        assert findings == []

    def test_marker_in_string_literal_is_inert(self):
        findings = lint(
            'MARKER = "daisylint: disable=DL006"\n'
            "def f(xs=[]):\n    return xs\n",
            relpath=ENGINE,
        )
        assert codes_of(findings) == ["DL006"]


class TestBaseline:
    def _finding(self, code="DL006", line=3, source="def f(xs=[]):"):
        return dl.Finding(
            code=code, path=ENGINE, line=line, col=0,
            message="m", source_line=source,
        )

    def test_fingerprint_survives_line_drift(self):
        a = self._finding(line=3)
        b = self._finding(line=40)
        (da, _), = dl.fingerprint_findings([a])
        (db, _), = dl.fingerprint_findings([b])
        assert da == db

    def test_identical_lines_get_distinct_fingerprints(self):
        pairs = dl.fingerprint_findings(
            [self._finding(line=3), self._finding(line=9)]
        )
        digests = [d for d, _ in pairs]
        assert len(set(digests)) == 2

    def test_never_baseline_codes_rejected(self):
        bad = self._finding(code="DL001", source="for x in s:")
        with pytest.raises(ValueError, match="DL001"):
            dl.Baseline.from_findings(dl.fingerprint_findings([bad]))

    def test_roundtrip_and_matching(self, tmp_path):
        finding = self._finding()
        baseline = dl.Baseline.from_findings(dl.fingerprint_findings([finding]))
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = dl.Baseline.load(path)
        assert loaded.entries == baseline.entries

    def test_checked_in_baseline_has_no_never_baseline_codes(self):
        baseline = dl.Baseline.load(
            REPO_ROOT / "tools" / "daisylint" / "baseline.json"
        )
        offending = [
            e for e in baseline.entries.values()
            if e.get("code") in dl.NEVER_BASELINE
        ]
        assert offending == []


class TestRunAndCli:
    def _write_fixture(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text("def f(xs=[]):\n    return xs\n")
        return tmp_path

    def test_run_reports_new_findings(self, tmp_path):
        root = self._write_fixture(tmp_path)
        result = dl.run([Path("src")], root)
        assert result.exit_code == 1
        assert codes_of([f for _, f in result.new]) == ["DL006"]

    def test_run_with_baseline_is_clean_and_flags_stale(self, tmp_path):
        root = self._write_fixture(tmp_path)
        first = dl.run([Path("src")], root)
        baseline = dl.Baseline.from_findings(first.new)
        second = dl.run([Path("src")], root, baseline=baseline)
        assert second.exit_code == 0
        assert len(second.matched) == 1
        # Fix the defect: the baseline entry goes stale, exit stays 0.
        fixture = root / "src" / "repro" / "engine" / "fixture.py"
        fixture.write_text("def f(xs=None):\n    return xs\n")
        third = dl.run([Path("src")], root, baseline=baseline)
        assert third.exit_code == 0
        assert len(third.stale) == 1

    def test_cli_exit_codes_and_baseline_write(self, tmp_path, capsys):
        root = self._write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = ["src", "--root", str(root / "src"), "--baseline", str(baseline)]
        # Findings are repo-relative to --root; point root at the fixture tree.
        rc = cli.main(["--root", str(root), "--baseline", str(baseline), "src"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DL006" in out and "1 new finding(s)" in out
        rc = cli.main(
            ["--root", str(root), "--baseline", str(baseline), "--write-baseline", "src"]
        )
        assert rc == 0
        assert baseline.exists()
        rc = cli.main(["--root", str(root), "--baseline", str(baseline), "src"])
        assert rc == 0
        assert "0 new finding(s), 1 baselined" in capsys.readouterr().out
        del argv

    def test_cli_refuses_to_baseline_dl001(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "detection"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text("s = {1, 2}\nxs = list(s)\n")
        baseline = tmp_path / "baseline.json"
        rc = cli.main(
            ["--root", str(tmp_path), "--baseline", str(baseline),
             "--write-baseline", "src"]
        )
        assert rc == 2
        assert not baseline.exists()
        assert "DL001" in capsys.readouterr().err

    def test_cli_json_output(self, tmp_path, capsys):
        root = self._write_fixture(tmp_path)
        report = tmp_path / "report.json"
        rc = cli.main(
            ["--root", str(root), "--no-baseline", "--json-output", str(report),
             "--format", "json", "src"]
        )
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["total_findings"] == 1
        assert payload["new"][0]["code"] == "DL006"
        assert "DL006" in payload["rules"]
        # stdout carries the same JSON document
        assert json.loads(capsys.readouterr().out)["total_findings"] == 1

    def test_cli_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(dl.RULES):
            assert code in out

    def test_cli_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        rc = cli.main(["--root", str(tmp_path), "--no-baseline", str(bad)])
        assert rc == 2
        assert "cannot lint" in capsys.readouterr().err


class TestMetaGate:
    """The repo's own source must lint clean against the checked-in baseline."""

    def test_src_lints_clean_modulo_baseline(self):
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, "-m", "tools.daisylint", "src"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_src_has_zero_baselined_never_baseline_codes(self):
        # Belt and braces on top of Baseline.from_findings' refusal.
        result = dl.run(
            [Path("src")], REPO_ROOT,
            baseline=dl.Baseline.load(
                REPO_ROOT / "tools" / "daisylint" / "baseline.json"
            ),
        )
        assert result.exit_code == 0
        baselined = {f.code for _, f in result.matched}
        assert not (baselined & set(dl.NEVER_BASELINE))


_HASHSEED_SCRIPT = """
from repro.detection.maintenance import (
    MaintenancePolicy, matrix_fingerprint, sync_matrix,
)
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.constraints import DenialConstraint, Predicate
from repro.engine.stats import WorkCounter
from repro.relation import ColumnType, Relation

rel = Relation.from_rows(
    [
        ("orderkey", ColumnType.INT),
        ("price", ColumnType.FLOAT),
        ("discount", ColumnType.FLOAT),
    ],
    [(i, 100.0 + i * 10.0, round(0.01 + i * 0.0001, 6)) for i in range(96)],
    name="lineorder",
)
dc = DenialConstraint(
    [
        Predicate(0, "price", "<", 1, "price"),
        Predicate(0, "discount", ">", 1, "discount"),
    ],
    name="dc_price_discount",
)
matrix = ThetaJoinMatrix(rel, dc, sqrt_p=4, counter=WorkCounter(), backend="columnar")
matrix.check_full()
# Touch BOTH constraint attributes across several stripes so the
# touched-attribute and touched-stripe sets have more than one member —
# the iteration orders DL001 forced through sorted().
updates = {
    (3, "price"): 5000.0,
    (40, "discount"): 0.9,
    (41, "price"): 4500.0,
    (90, "discount"): 0.8,
}
sync_matrix(matrix, updates, MaintenancePolicy(mode="patch"))
violations = matrix.check_full()
print(matrix_fingerprint(matrix, include_sorted=True))
print(sorted(map(repr, violations)) if isinstance(violations, (list, set)) else repr(violations))
"""


class TestHashSeedRegression:
    """Regression lock for the DL001 fixes in detection/maintenance.py.

    Before the sorted() wraps, patch maintenance iterated raw string sets
    (touched attributes / stripe identities), so the patched structures
    could depend on PYTHONHASHSEED.  The same scenario must now produce
    byte-identical output under different hash seeds.
    """

    def _run(self, seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_patched_matrix_identical_across_hash_seeds(self):
        outputs = {self._run(seed) for seed in ("1", "4242")}
        assert len(outputs) == 1
