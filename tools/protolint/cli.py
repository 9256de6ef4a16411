"""Command-line interface: ``python -m tools.protolint <paths...>``.

Exit codes: 0 clean, 1 violations found, 2 usage or parse errors.

Beyond linting, one maintenance flow lives here: ``--update-lock
src/`` regenerates the committed wire-registry lockfile from the live
codec (the only sanctioned way to record an intentional, append-only
wire addition).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from tools.protolint.engine import (
    ProjectContext,
    discover_files,
    lint_paths,
)
from tools.protolint.output import render_github, render_sarif, render_text
from tools.protolint.registry import REGISTRY, all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.protolint",
        description="AST-based protocol-invariant linter "
                    "(see docs/STATIC_ANALYSIS.md)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--format", dest="format", default="text",
                        choices=("text", "sarif", "github"),
                        help="violation output format (default: text; "
                             "sarif for code-scanning upload, github "
                             "for inline Actions annotations)")
    parser.add_argument("--update-lock", action="store_true",
                        help="regenerate tools/protolint/"
                             "wire_registry.lock from the codec in the "
                             "given paths (append-only additions only)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")
    parser.add_argument("--explain", metavar="CODE",
                        help="print a rule's full documentation and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def _parse_codes(raw: str) -> set[str]:
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def _update_lock(paths: Sequence[str]) -> int:
    """Regenerate the wire-registry lockfile from the live tree."""
    import ast as _ast

    from tools.protolint.project import ProjectModel
    from tools.protolint.wirelock import (
        UNRESOLVED,
        extract_registry,
        format_lock,
    )

    anchor = Path(paths[0]) if paths else Path.cwd()
    project = ProjectContext.discover(
        anchor if anchor.is_dir() else anchor.parent)
    model = ProjectModel()
    for file_path in discover_files(paths):
        try:
            model.add(str(file_path).replace("\\", "/"),
                      _ast.parse(file_path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue  # lint proper reports these; the lock needs the codec
    extraction = extract_registry(model)
    if extraction is None:
        print("--update-lock: no codec module (_iter_registrations) in "
              "the given paths; run against src/", file=sys.stderr)
        return 2
    unresolved = [e for e in extraction.entries if e.fields == UNRESOLVED]
    if unresolved or extraction.problems:
        for message, path, lineno in extraction.problems:
            print(f"{path}:{lineno}: {message}", file=sys.stderr)
        for entry in unresolved:
            print(f"--update-lock: cannot resolve fields of "
                  f"{entry.type_name} (wire id {entry.wire_id}); include "
                  "its defining module in the paths", file=sys.stderr)
        return 2
    if project.repo_root is None:
        print("--update-lock: repository root not found (no "
              "src/repro/core/config.py above the given paths)",
              file=sys.stderr)
        return 2
    lock_path = project.repo_root / ProjectContext.WIRE_LOCK_RELPATH
    lock_path.write_text(format_lock(extraction.entries), encoding="utf-8")
    print(f"wrote {len(extraction.entries)} wire ids to {lock_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for rule in rules:
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.code}  {rule.name}  [{scope}]")
        return 0

    if args.explain:
        code = args.explain.strip().upper()
        rule = REGISTRY.get(code)
        if rule is None:
            print(f"unknown rule {code!r}; try --list-rules", file=sys.stderr)
            return 2
        doc = sys.modules[type(rule).__module__].__doc__
        print(f"{rule.code} ({rule.name})\n")
        print((doc or type(rule).__doc__ or "undocumented").strip())
        return 0

    if not args.paths:
        parser.error("no paths given (try: src/ tools/ benchmarks/)")

    if args.update_lock:
        return _update_lock(args.paths)

    if args.select:
        selected = _parse_codes(args.select)
        unknown = selected - REGISTRY.keys()
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.code in selected]
    if args.ignore:
        ignored = _parse_codes(args.ignore)
        rules = [rule for rule in rules if rule.code not in ignored]

    result = lint_paths(args.paths, rules=rules)
    violations = result.violations

    if args.format == "sarif":
        from tools.protolint import __version__
        print(render_sarif(violations, __version__))
    elif args.format == "github":
        if violations:
            print(render_github(violations))
    elif violations:
        print(render_text(violations))
    for path, message in result.errors:
        print(f"{path}: error: {message}", file=sys.stderr)
    if not args.quiet:
        status = "clean" if not violations and not result.errors else (
            f"{len(violations)} violation(s), "
            f"{len(result.errors)} error(s)")
        print(f"protolint: {result.files_checked} file(s) checked: {status}",
              file=sys.stderr)
    if result.errors:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
