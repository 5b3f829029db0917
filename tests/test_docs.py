"""Documentation regression tests.

Four guarantees:

* ``docs/cli.md`` cannot rot: its per-verb help blocks are generated
  from :func:`repro.cli.build_parser` (with ``COLUMNS`` pinned so the
  argparse wrapping is stable), and the checked-in file must match the
  generator byte for byte. Regenerate after an intentional CLI change::

      PYTHONPATH=src:tests python -m test_docs

* No dead relative links: every ``[text](path)`` markdown link in
  README.md, ARCHITECTURE.md, DESIGN.md, and docs/ must point at a file
  that exists in the repository.

* Every backticked dotted name ARCHITECTURE.md gives as an entry point
  imports.

* Every name in DESIGN.md's "Kept although only tests reach it" list
  (as ``tools/reach.py`` reads it) still exists, so the list cannot rot.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import re
from pathlib import Path

REPO = Path(__file__).parent.parent
CLI_DOC_PATH = REPO / "docs" / "cli.md"

#: Documents whose relative links are checked.
LINKED_DOCS = ("README.md", "ARCHITECTURE.md", "DESIGN.md", "docs/cli.md")

#: argparse wraps help to the terminal width; pin it so the generated
#: doc is identical on every machine.
HELP_COLUMNS = "80"

VERBS = ("simulate", "characterize", "diagnose", "validate", "serve")

EXIT_CODES = """\
## Exit codes

Every verb uses the same exit-code convention:

| code | meaning |
|---|---|
| 0 | success (for `validate`: every incident / paper-era family passed) |
| 1 | ran to completion but a check failed — `validate` found mislocalized incidents, or `validate --suite` found a paper-era family below `--accuracy-floor` |
| 2 | usage error: invalid flag values, a `validate` flag the chosen case set would ignore, unloadable scenario/checkpoint, mismatched `--checkpoint-dir`/`--resume`, an output file whose directory does not exist (caught before the run) |
| 3 | chaos kill: the run hit `--kill-at` (state was checkpointed first when a store was configured) |
"""

EXAMPLES = """\
## Examples

```bash
# Build a world and print its shape (fault mix, horizon, population).
python -m repro simulate --seed 7 --regions USA Europe --days 2

# Save a world's spec, then diagnose it under injected infrastructure
# faults (the repro.chaos smoke plan) and archive the report.
python -m repro simulate --seed 7 --days 2 --save world.json
python -m repro diagnose --scenario world.json --start 288 --chaos 5 \\
    --save-report report.json

# The §2 measurement study over one simulated day.
python -m repro characterize --seed 7 --days 2 --start 288

# Diagnose a day; choose how the probe budget is spent (see
# repro.core.probeplan): naive | paper | clustered.
python -m repro diagnose --seed 7 --days 2 --start 288 --budget 5 \\
    --planner clustered

# Diagnose two days with 4 worker processes, a metrics snapshot, and a
# checkpoint at the day boundary between them.
python -m repro diagnose --seed 7 --days 3 --workers 4 \\
    --metrics-json metrics.json --checkpoint-dir ckpt

# Resume the same run from its newest checkpoint.
python -m repro diagnose --seed 7 --days 3 --resume ckpt

# Score localization against labelled incidents (exit 1 on a miss).
python -m repro validate --seed 11 --incidents 20

# The adversarial scenario suite with its per-family scorecard.
python -m repro validate --suite --save-scorecard scorecard.json

# Run as a streaming daemon with live HTTP status and checkpoints.
python -m repro serve --seed 7 --days 2 --start 288 \\
    --checkpoint-dir serve-ckpt --checkpoint-every 36 --alerts-jsonl alerts.jsonl
```
"""


def generated_cli_doc() -> str:
    """The canonical docs/cli.md content, from the live parser."""
    os.environ["COLUMNS"] = HELP_COLUMNS
    from repro.cli import build_parser

    parser = build_parser()
    sections = [
        "# CLI reference — `python -m repro`",
        "",
        "Generated from `repro.cli.build_parser()`; do not edit the help",
        "blocks by hand. Regenerate with:",
        "",
        "```bash",
        "PYTHONPATH=src:tests python -m test_docs",
        "```",
        "",
        "Every command builds a reproducible world from its seed: same",
        "flags, same results, on any machine.",
        "",
        "```",
        parser.format_help().rstrip(),
        "```",
        "",
        EXIT_CODES,
    ]
    subactions = {
        action.dest: action
        for action in parser._actions
        if action.dest == "command"
    }["command"]
    for verb in VERBS:
        sub = subactions.choices[verb]
        sections += [
            f"## `repro {verb}`",
            "",
            "```",
            sub.format_help().rstrip(),
            "```",
            "",
        ]
    sections.append(EXAMPLES)
    return "\n".join(sections)


class TestCliDoc:
    def test_cli_doc_matches_parser(self):
        assert CLI_DOC_PATH.exists(), (
            "docs/cli.md missing; generate with "
            "`PYTHONPATH=src:tests python -m test_docs`"
        )
        expected = generated_cli_doc()
        actual = CLI_DOC_PATH.read_text(encoding="utf-8")
        assert actual == expected, (
            "docs/cli.md is stale relative to repro.cli.build_parser(); "
            "regenerate with `PYTHONPATH=src:tests python -m test_docs`"
        )

    def test_doc_covers_every_verb_and_flag(self):
        """Belt and braces: each verb section names all of its flags."""
        os.environ["COLUMNS"] = HELP_COLUMNS
        from repro.cli import build_parser

        parser = build_parser()
        doc = generated_cli_doc()
        command_action = next(
            action for action in parser._actions if action.dest == "command"
        )
        for verb, sub in command_action.choices.items():
            assert f"## `repro {verb}`" in doc
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in doc, (verb, option)

    def test_exit_codes_documented(self):
        doc = CLI_DOC_PATH.read_text(encoding="utf-8")
        for code in ("| 0 |", "| 1 |", "| 2 |", "| 3 |"):
            assert code in doc


_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def _relative_links(path: Path) -> list[tuple[str, Path]]:
    links = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        links.append((target, (path.parent / target).resolve()))
    return links


class TestDocLinks:
    def test_no_dead_relative_links(self):
        dead = []
        for name in LINKED_DOCS:
            doc = REPO / name
            if not doc.exists():
                dead.append((name, "document itself missing"))
                continue
            for target, resolved in _relative_links(doc):
                if not resolved.exists():
                    dead.append((name, target))
        assert not dead, f"dead relative links: {dead}"

    def test_architecture_is_linked_from_readme(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "ARCHITECTURE.md" in readme
        assert "docs/cli.md" in readme


def _entry_points() -> list[tuple[str, str]]:
    """``(package, dotted name)`` for each backticked dotted name in
    ARCHITECTURE.md's "Entry point(s):" sentences and its by-task table;
    the package is the ``### `repro.x``` section the name appears in."""
    text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
    found = []
    for chunk in re.split(r"^### ", text, flags=re.M)[1:]:
        header = re.match(r"`(repro(?:\.\w+)*)`", chunk)
        package = header.group(1) if header else "repro"
        spans = re.findall(r"Entry points?:(.*?)(?:Rationale:|\n\n)", chunk, re.S)
        spans += [line for line in chunk.splitlines() if line.startswith("| ")]
        for span in spans:
            for name in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", span):
                found.append((package, name))
    return found


def _resolves(package: str, dotted: str) -> bool:
    """Whether ``dotted`` imports, relative to ``package`` or absolutely:
    the longest importable module prefix, then attributes."""
    for names in (package.split(".") + dotted.split("."), dotted.split(".")):
        for split in range(len(names), 0, -1):
            try:
                obj = importlib.import_module(".".join(names[:split]))
            except ImportError:
                continue
            try:
                for attr in names[split:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                break
            return True
    return False


class TestArchitectureEntryPoints:
    def test_every_entry_point_resolves(self):
        names = _entry_points()
        assert len(names) >= 10, names
        unresolved = [name for package, name in names if not _resolves(package, name)]
        assert not unresolved, f"ARCHITECTURE.md names missing entry points: {unresolved}"


def _reach_tool():
    spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestKeptList:
    def test_every_kept_name_exists(self):
        kept = _reach_tool().kept_names()
        assert len(kept) >= 10, kept
        missing = sorted(name for name in kept if not _resolves("repro", name))
        assert not missing, f"DESIGN.md keeps names that no longer exist: {missing}"


if __name__ == "__main__":
    CLI_DOC_PATH.parent.mkdir(parents=True, exist_ok=True)
    CLI_DOC_PATH.write_text(generated_cli_doc(), encoding="utf-8")
    print(f"CLI reference written to {CLI_DOC_PATH}")
