#!/usr/bin/env python
"""Documentation checks, run by the CI ``docs`` job.

Four checks:

1. **Intra-repo links** — every relative markdown link in the checked
   files must point at a file (or directory) that exists.  External
   links (``http(s)://``, ``mailto:``) and pure fragments (``#...``)
   are ignored; a trailing ``#fragment`` on a relative link is stripped
   before the existence check.
2. **Doctests** — fenced ```` ```python ```` blocks in the
   :data:`DOCTEST_DOCS` files are extracted *in order into one shared
   namespace per file* and executed with :mod:`doctest`, so the
   documented examples cannot rot.
3. **Config coverage** — every ``PlannerConfig`` field name must appear
   somewhere in the docs corpus, so a new planner knob cannot land
   undocumented.
4. **CLI line** — every subcommand ``python -m repro --help`` lists must
   appear in README's one-line CLI summary
   (``python -m repro plan|trace|...``).

Usage::

    python tools/check_docs.py            # from the repository root
    python tools/check_docs.py --verbose
"""

from __future__ import annotations

import argparse
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: files whose relative links must resolve (generated / scratch files
#: like ISSUE.md and SNIPPETS.md are deliberately out of scope)
LINKED_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ALGORITHMS.md",
    "docs/COMMUNICATION.md",
    "docs/HETEROGENEOUS.md",
    "docs/INCREMENTAL.md",
    "docs/INDEX.md",
    "docs/OBSERVABILITY.md",
    "docs/SCALING.md",
    "docs/SERVICE.md",
    "docs/SERVING_SIM.md",
    "docs/VERIFICATION.md",
    "examples/README.md",
)

#: files whose fenced python examples run as doctests
DOCTEST_DOCS = (
    "docs/OBSERVABILITY.md",
    "docs/COMMUNICATION.md",
    "docs/HETEROGENEOUS.md",
    "docs/INCREMENTAL.md",
    "docs/SCALING.md",
    "docs/SERVICE.md",
    "docs/SERVING_SIM.md",
)

#: files searched by the PlannerConfig coverage check
COVERAGE_DOCS = LINKED_DOCS

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CLI_LINE_RE = re.compile(r"`python -m repro ((?:[\w-]+\|)+[\w-]+)`")
_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def check_links(root: Path, rel_paths=LINKED_DOCS) -> List[str]:
    """Return one error string per broken relative link."""
    errors: List[str] = []
    for rel in rel_paths:
        md = root / rel
        if not md.exists():
            errors.append(f"{rel}: file listed in LINKED_DOCS is missing")
            continue
        for target in _LINK_RE.findall(md.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md.parent / target_path).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def extract_python_blocks(text: str) -> List[str]:
    return [m.group(1) for m in _FENCE_RE.finditer(text)]


def run_doctests(
    root: Path, rel_paths=DOCTEST_DOCS, verbose: bool = False
) -> Tuple[int, int]:
    """Run fenced examples; returns (failures, attempts)."""
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        verbose=verbose, optionflags=doctest.ELLIPSIS
    )
    failures = attempts = 0
    for rel in rel_paths:
        md = root / rel
        blocks = extract_python_blocks(md.read_text())
        source = "\n".join(blocks)
        globs: dict = {}
        test = parser.get_doctest(source, globs, rel, str(md), 0)
        result = runner.run(test, clear_globs=False)
        failures += result.failed
        attempts += result.attempted
    return failures, attempts


def check_config_coverage(root: Path, rel_paths=COVERAGE_DOCS) -> List[str]:
    """One error per config field absent from the docs corpus.

    Covers every ``PlannerConfig``, ``ClusterSpec`` and ``DeviceClass``
    field: a field is covered when its exact name appears as a whole
    word in any of ``rel_paths`` — enough to guarantee a reader can
    grep the docs for the knob they are holding.
    """
    import dataclasses

    sys.path.insert(0, str(root / "src"))
    try:
        from repro.hardware.cluster import ClusterSpec, DeviceClass
        from repro.planner.context import PlannerConfig
    finally:
        sys.path.pop(0)

    corpus = "\n".join(
        (root / rel).read_text() for rel in rel_paths if (root / rel).exists()
    )
    errors: List[str] = []
    for cls in (PlannerConfig, ClusterSpec, DeviceClass):
        for field in dataclasses.fields(cls):
            if not re.search(rf"\b{re.escape(field.name)}\b", corpus):
                errors.append(
                    f"{cls.__name__}.{field.name}: not mentioned in any "
                    f"doc ({', '.join(rel_paths[:3])}, ...)"
                )
    return errors


def cli_subcommands(root: Path) -> List[str]:
    """The subcommands ``python -m repro --help`` lists, in order."""
    help_text = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    ).stdout
    match = re.search(r"\{([\w,-]+)\}", help_text)
    return match.group(1).split(",") if match else []


def check_cli_line(
    root: Path, subcommands: List[str], rel: str = "README.md"
) -> List[str]:
    """One error per subcommand missing from README's CLI line."""
    match = _CLI_LINE_RE.search((root / rel).read_text())
    if match is None:
        return [f"{rel}: no CLI line (`python -m repro a|b|...`)"]
    listed = set(match.group(1).split("|"))
    return [
        f"{rel}: CLI line omits subcommand {name!r}"
        for name in subcommands
        if name not in listed
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO_ROOT)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    rc = 0
    link_errors = check_links(args.root)
    if link_errors:
        rc = 1
        for err in link_errors:
            print(f"LINK FAIL  {err}")
    else:
        print(f"links OK ({len(LINKED_DOCS)} files checked)")

    failures, attempts = run_doctests(args.root, verbose=args.verbose)
    if failures:
        rc = 1
        print(f"doctest FAIL ({failures}/{attempts} examples failed)")
    elif attempts == 0:
        rc = 1
        print("doctest FAIL (no examples found — fence regex broken?)")
    else:
        print(f"doctests OK ({attempts} examples)")

    coverage_errors = check_config_coverage(args.root)
    if coverage_errors:
        rc = 1
        for err in coverage_errors:
            print(f"COVERAGE FAIL  {err}")
    else:
        print("PlannerConfig coverage OK (every field documented)")

    subcommands = cli_subcommands(args.root)
    cli_errors = check_cli_line(args.root, subcommands)
    if not subcommands:
        cli_errors.append("`python -m repro --help` lists no subcommands")
    if cli_errors:
        rc = 1
        for err in cli_errors:
            print(f"CLI FAIL  {err}")
    else:
        print(f"CLI line OK ({len(subcommands)} subcommands listed)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
