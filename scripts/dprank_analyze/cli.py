"""Command line driver.

Usage:
    python3 scripts/dprank_analyze [--root DIR] [--backend auto|clang|astlite]
                                   [--json [FILE]] [--compile-commands PATH]
                                   [paths...]

Default file set: every .hpp/.cpp under <root>/src, tools, tests and
bench. Exit: 0 clean, 1 findings (including unused/malformed waivers),
2 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import RULES, STRUCTURAL_DIRS, SWEEP_DIRS
from .astlite import SourceFile, load_file, merge_pair
from .rules import (Finding, check_contract_coverage, check_iteration_rules,
                    check_line_rules, check_nondet_sources,
                    check_thread_captures, in_dirs)
from .waivers import WaiverTable


def collect_files(root: Path, paths: list[Path]) -> list[Path]:
    if paths:
        return [p.resolve() for p in paths]
    files: list[Path] = []
    for sub in SWEEP_DIRS:
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.cpp")))
    return files


def analyze(root: Path, files: list[Path], backend: str,
            compile_commands: Path | None) -> tuple[list[Finding], str, int]:
    """Returns (findings, backend_used, files_analyzed)."""
    from . import clang_backend

    use_clang = False
    cc_args: dict[str, list[str]] = {}
    if backend in ("auto", "clang"):
        cc = compile_commands or root / "build" / "compile_commands.json"
        if clang_backend.available() and cc.is_file():
            try:
                cc_args = clang_backend.load_compile_args(cc)
                use_clang = True
            except (OSError, json.JSONDecodeError, KeyError) as e:
                if backend == "clang":
                    raise SystemExit(
                        f"error: cannot load {cc}: {e}") from e
        elif backend == "clang":
            raise SystemExit(
                "error: --backend clang requires the clang Python "
                "bindings, a loadable libclang, and "
                f"{cc} (configure with "
                "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")

    waivers = WaiverTable()
    models: list[SourceFile] = []
    by_rel: dict[str, SourceFile] = {}
    for path in files:
        try:
            sf = load_file(path, root)
        except ValueError:
            raise SystemExit(f"error: {path} is outside --root {root}")
        waivers.scan_file(path, sf.raw_lines)
        models.append(sf)
        by_rel[sf.rel] = sf

    # Pair .cpp with its header so member declarations resolve.
    for sf in models:
        if sf.rel.endswith(".cpp"):
            hdr = by_rel.get(sf.rel[:-4] + ".hpp")
            if hdr is not None:
                merge_pair(sf, hdr)
                merge_pair(hdr, sf)

    structural = [sf for sf in models if in_dirs(sf.rel, STRUCTURAL_DIRS)]
    if use_clang:
        for sf in structural:
            args = cc_args.get(str(sf.path))
            if args is None:
                continue
            loops = clang_backend.extract_loops(sf, args)
            if loops is not None:
                sf.loops = loops

    findings: list[Finding] = []
    for sf in models:
        check_nondet_sources(sf, waivers, findings)
        check_line_rules(sf, waivers, findings)
    for sf in structural:
        check_iteration_rules(sf, waivers, findings)
        check_thread_captures(sf, waivers, findings)
    check_contract_coverage(structural, waivers, findings)

    for w in waivers.missing_reason():
        rel = w.path.relative_to(root).as_posix()
        findings.append(Finding(
            rel, w.line + 1, "malformed-waiver",
            f"waiver for ({', '.join(w.rules)}) has no `-- reason`; "
            "every analyzer waiver must say why the rule does not apply",
        ))
    for w, rule in waivers.unused():
        rel = w.path.relative_to(root).as_posix()
        findings.append(Finding(
            rel, w.line + 1, "unused-waiver",
            f"waiver for '{rule}' suppresses nothing — remove it (stale "
            "waivers reopen determinism holes silently)",
        ))

    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings, ("clang" if use_clang else "astlite"), len(models)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dprank_analyze",
        description="static determinism & concurrency checker "
                    "(rules: " + ", ".join(sorted(RULES)) + ")")
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent.parent,
        help="repository root (default: the checkout containing this "
             "package)")
    parser.add_argument(
        "--backend", choices=("auto", "clang", "astlite"), default="auto",
        help="auto: libclang when available, else the self-contained "
             "tokenizer; golden tests pin astlite")
    parser.add_argument(
        "--compile-commands", type=Path, default=None,
        help="compilation database (default: <root>/build/"
             "compile_commands.json)")
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="emit findings as JSON to FILE (or stdout with no value)")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="specific files to analyze (default: src/, tools/, tests/ "
             "and bench/ under --root)")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    files = collect_files(root, args.paths)
    if not files:
        print("error: no input files", file=sys.stderr)
        return 2
    try:
        findings, backend, nfiles = analyze(
            root, files, args.backend, args.compile_commands)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    if args.json is not None:
        doc = {
            "version": 1,
            "backend": backend,
            "files": nfiles,
            "findings": [f.as_json() for f in findings],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)

    if args.json != "-":
        for f in findings:
            print(f)
    if findings:
        print(f"\ndprank_analyze[{backend}]: {len(findings)} finding(s) "
              f"in {nfiles} file(s)", file=sys.stderr)
        return 1
    if args.json != "-":
        print(f"dprank_analyze[{backend}]: clean ({nfiles} files)")
    return 0
