"""Which ``src/`` functions does each entry point reach?

Runs every entry point in a copy of the tree (the figure suite rewrites
its captures) under a ``sys.setprofile`` hook loaded through a generated
``sitecustomize``; prints the functions no entry point reaches and those
only tier-1 reaches, and exits 1 if one is not under a name in DESIGN.md's
"Kept although only tests reach it" list. ``--keep DIR`` keeps the logs.
The hook logs per PID, so forked workers count, and it survives
``sys.setprofile(None)`` (pytest-benchmark pauses profilers around timed
runs). ``test_examples`` scrubs ``PYTHONPATH``: examples run directly.

    python3 tools/reach.py    # about 5 minutes on 2 cores
"""

from __future__ import annotations

import argparse, ast, os, pathlib, re, shlex, shutil, subprocess, sys, tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOOK = '''import os, sys, threading
_out, _src, _seen = os.environ["REACH_LOG"], os.environ["REACH_SRC"], set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            with open(os.path.join(_out, f"{os.getpid()}.log"), "a") as log:
                log.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
_set = sys.setprofile
sys.setprofile = lambda fn: _set(fn or _hook)
threading.setprofile(_hook)
_set(_hook)
'''


def entry_points(tree: pathlib.Path) -> dict[str, list[list[str]]]:
    py = sys.executable
    docs = (tree / "docs" / "cli.md").read_text().split("## Examples", 1)[1]
    cli = [shlex.split(c) for c in re.findall(r"^python (-m repro .*)$", docs.replace("\\\n", ""), re.M)]
    return {
        "tests": [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
        "figures": [[py, "-m", "pytest", "benchmarks", "--benchmark-only", "-q", "-p", "no:cacheprovider"]],
        "ledger": [[py, "benchmarks/ledger/run.py", "--check"]],
        "examples": [[py, str(p)] for p in sorted((tree / "examples").glob("*.py"))],
        "cli": [[py, *c] for c in cli],
    }


def functions(src: pathlib.Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (dotted name, lines)`` for every def in ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (f"{prefix}.{child.name}", child.end_lineno - first + 1)
                    visit(child, f"{prefix}.{child.name}.<locals>")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
        visit(ast.parse(path.read_text()), module)
    return found


def kept_names() -> set[str]:
    text = (ROOT / "DESIGN.md").read_text().partition("Kept although only tests reach it")[2]
    return set(re.findall(r"`(repro\.[\w.]+)`", text.split("\n#", 1)[0]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=pathlib.Path, help="directory for the per-PID call logs")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        tree, hook = pathlib.Path(scratch) / "tree", pathlib.Path(scratch) / "hook"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".benchmarks", "*.egg-info", "out"))
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        logs = (args.keep or pathlib.Path(scratch) / "logs").resolve()
        reached: dict[str, set[tuple[str, int]]] = {}
        for name, commands in entry_points(tree).items():
            shutil.rmtree(logs / name, ignore_errors=True)  # a reused --keep DIR
            (logs / name).mkdir(parents=True)
            env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{tree / 'src'}",
                       REACH_LOG=str(logs / name), REACH_SRC=str(tree / "src"))
            for command in commands:
                run = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL)
                print(f"[{name}] exit {run.returncode}: {shlex.join(command[1:])}", file=sys.stderr)
            reached[name] = {(f, int(n)) for log in (logs / name).glob("*.log")
                             for f, n in (line.split("\t") for line in log.read_text().splitlines())}
        defs = functions(tree / "src")
    others = set().union(*(hits for name, hits in reached.items() if name != "tests"))
    kept, unjustified = kept_names(), 0
    for title, keys in (("unreached", defs.keys() - reached["tests"] - others),
                        ("tests only", (defs.keys() & reached["tests"]) - others)):
        rows = sorted(defs[k] for k in keys)
        print(f"{title}: {len(rows)} functions, {sum(n for _, n in rows)} lines")
        for dotted, n in rows:
            ok = any(dotted == k or dotted.startswith(k + ".") for k in kept)
            unjustified += not ok
            print(f"  {' ' if ok else '!'} {dotted} ({n})")
    print(f"{unjustified} not in DESIGN.md's kept list (marked !)")
    return 1 if unjustified else 0


if __name__ == "__main__":
    sys.exit(main())
