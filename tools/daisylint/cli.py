"""daisylint command line: ``python -m tools.daisylint [paths…]``.

Exit codes: 0 — clean (modulo the baseline); 1 — new findings; 2 — usage
or parse error.  ``--write-baseline`` regenerates the grandfathered-
findings ledger (refusing DL001 entries); ``--json-output`` writes
the machine-readable report CI uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from tools.daisylint.cache import DEFAULT_CACHE as DEFAULT_CACHE_FILE
from tools.daisylint.cache import FileCache
from tools.daisylint.core import Baseline, RunResult, iter_rules, run

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daisylint",
        description="AST invariant lints for the Daisy engine core "
        "(see docs/static-analysis.md).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="baseline JSON of grandfathered findings",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from the current findings and exit 0 "
        "(DL001 findings are rejected — fix those)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--json-output", default=None, metavar="FILE",
        help="also write the JSON findings report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="analyze files over N worker processes (default: 1, inline)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=str(DEFAULT_CACHE_FILE), default=None,
        metavar="FILE",
        help="reuse per-file results for unchanged files "
        f"(default cache: {DEFAULT_CACHE_FILE})",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="fail (and prune the baseline file) if any baseline entry is "
        "stale — its finding no longer fires",
    )
    parser.add_argument(
        "--dump-project", default=None, metavar="FILE",
        help="write the whole-program attribute-mutation map to FILE "
        "(the ownership-annotation authoring aid)",
    )
    return parser


def _print_text(result: RunResult, stream) -> None:
    for _digest, finding in result.new:
        print(finding.render(), file=stream)
    summary = (
        f"daisylint: {result.files_checked} files, "
        f"{len(result.new)} new finding(s), "
        f"{len(result.matched)} baselined"
    )
    if result.stale:
        summary += f", {len(result.stale)} stale baseline entry(ies)"
    print(summary, file=stream)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.name}: {rule.rationale}")
        return 0

    root = Path(args.root).resolve()
    baseline_path = Path(args.baseline)
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)

    errors: list[str] = []

    def on_error(path: Path, exc: Exception) -> None:
        errors.append(f"daisylint: cannot lint {path}: {exc}")

    cache = FileCache.load(Path(args.cache)) if args.cache else None
    result = run(
        [Path(p) for p in args.paths], root, baseline=baseline,
        on_error=on_error, jobs=max(1, args.jobs), cache=cache,
    )
    for line in errors:
        print(line, file=sys.stderr)

    if args.dump_project and result.project is not None:
        Path(args.dump_project).write_text(
            json.dumps(result.project.mutation_report(), indent=2) + "\n"
        )

    if args.write_baseline:
        from tools.daisylint.core import fingerprint_findings

        try:
            new_baseline = Baseline.from_findings(fingerprint_findings(result.findings))
        except ValueError as exc:
            print(f"daisylint: {exc}", file=sys.stderr)
            return 2
        new_baseline.save(baseline_path)
        print(
            f"daisylint: wrote {len(new_baseline.entries)} baseline entries "
            f"to {baseline_path}"
        )
        return 0

    if args.json_output:
        Path(args.json_output).write_text(
            json.dumps(result.to_json(), indent=2) + "\n"
        )

    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        _print_text(result, sys.stdout)

    if args.check_baseline and result.stale:
        # Stale entries mean the baseline over-grants: the finding they
        # grandfathered no longer fires.  Prune them (locally this fixes
        # the file; in CI the failure flags the un-committed prune).
        for digest in result.stale:
            baseline.entries.pop(digest, None)
        if not args.no_baseline:
            baseline.save(baseline_path)
        print(
            f"daisylint: pruned {len(result.stale)} stale baseline "
            f"entry(ies) from {baseline_path}; commit the updated baseline",
            file=sys.stderr,
        )
        return 1

    if errors:
        return 2
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
