"""Size ledger: the counts a shrinking change states before and after.
Usage: python scripts/size_ledger.py [sf_dir]  (default /root/testdata/sf0.001)

Prints package lines, `def test_` count, the queries() / oracle_sql() /
GOLDEN / GOLDEN_SF001 sizes, the entries that qualify for the driver window
(oracle-backed and absent from CORRECTNESS_r01-r04), whether this checkout's
query order meets the conditions of tests/test_query_order.py, the
modules that no import statement, top-level or lazy, reaches from the engine
entry points, and the top-level functions, classes and module-level
constants of the package whose name no file outside tests/ mentions apart
from their own definition.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY = ["cli", "pipelines.corpus_prep", "pipelines.quality_filter", "state.lineage",
         "server", "gateway_http", "client", "oracle.decisions_sql"]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def lines(path: str) -> int:
    return read(path).count("\n")


def imports(path: str, known: set[str]) -> set[str]:
    """Every safe_zone_ray module named by an import or __import__ in `path`,
    plus the packages above each (importing a module runs their __init__).
    The package uses absolute imports only."""
    names = set()
    for n in ast.walk(ast.parse(read(path))):
        if isinstance(n, ast.Import):
            names |= {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module:
            names |= {n.module} | {f"{n.module}.{a.name}" for a in n.names}
        elif isinstance(n, ast.Call) and getattr(n.func, "id", "") == "__import__":
            if n.args and isinstance(n.args[0], ast.Constant):
                names.add(n.args[0].value)
    parts = {".".join(m.split(".")[:i + 1]) for m in names for i in range(m.count(".") + 1)}
    return parts & known


def top_level_names(tree: ast.Module) -> list[str]:
    """Functions, classes and module-level constants (plain or annotated
    assignments to a name, dunders such as ``__all__`` left out)."""
    out = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(n.name)
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            out += [t.id for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")]
    return out


def unreferenced_helpers(path_of: dict[str, str]) -> list[str]:
    """`module.name` of every top-level function, class or constant in the
    package whose name occurs, as a whole word, in no .py file outside
    tests/ except at its own definition: a helper only tests still use."""
    texts = [read(f) for f in glob.glob(os.path.join(ROOT, "**", "*.py"), recursive=True)
             if not os.path.relpath(f, ROOT).startswith("tests" + os.sep)]
    out = []
    for m in sorted(path_of):
        for name in top_level_names(ast.parse(read(path_of[m]))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(t)) for t in texts) <= 1:
                out.append(f"{m}.{name}")
    return out


def checked_entries() -> set[str]:
    """Entries the grading driver already checked (CORRECTNESS_r01-r04)."""
    checked = set()
    for p in glob.glob(os.path.join(ROOT, "CORRECTNESS_r0[1-4].json")):
        checked |= set(json.loads(read(p)))
    return checked


def window_breaks(queries: list[str], oracle: dict, checked: set[str]) -> list[str]:
    """The conditions tests/test_query_order.py puts on the first 50
    entries, checked against this checkout; one message per broken one."""
    window = queries[:50]
    out = [f"no oracle: {k}" for k in window if k not in oracle]
    out += [f"in CORRECTNESS_r01-r04: {k}" for k in window if k in checked]
    if window[:1] != ["exact_substring_dup_stats"]:
        out.append(f"window[0] is {window[:1]}, not exact_substring_dup_stats")
    if "global_line_dedup" not in window[:5]:
        out.append("global_line_dedup not in the first 5")
    keep = ("quality_filter_decisions", "kept_corpus", "toxicity_flags", "exact_dedup", "bm25_topk")
    out += [f"missing keeper: {k}" for k in keep if k not in queries]
    return out + [f"oracle without query: {k}" for k in oracle if k not in queries]


def main(sf_dir: str) -> None:
    files = glob.glob(os.path.join(ROOT, "safe_zone_ray", "**", "*.py"), recursive=True)
    path_of = {os.path.relpath(f, ROOT)[:-3].replace(os.sep, ".").removesuffix(".__init__"): f
               for f in files}
    seen, todo = set(), [f"safe_zone_ray.{m}" for m in ENTRY]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo += imports(path_of[m], set(path_of)) - seen
    tests = glob.glob(os.path.join(ROOT, "tests", "test_*.py"))
    n_tests = sum(len(re.findall(r"^\s*def test_", read(t), re.M)) for t in tests)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]
    import __ray_entry__ as e
    import test_golden_hashes as g

    queries, oracle, checked = list(e.queries()), e.oracle_sql(sf_dir), checked_entries()
    print(f"package lines     {sum(lines(f) for f in files)}")
    print(f"def test_         {n_tests}")
    print(f"queries()         {len(queries)}")
    print(f"oracle_sql()      {len(oracle)}")
    print(f"GOLDEN            {len(g.GOLDEN)}")
    print(f"GOLDEN_SF001      {len(g.GOLDEN_SF001)}")
    print(f"window-qualifying {sum(k in oracle and k not in checked for k in queries)}")
    breaks = window_breaks(queries, oracle, checked)
    print(f"driver window     {'ok' if not breaks else 'BROKEN: ' + '; '.join(breaks)}")
    off = sorted(set(path_of) - seen)
    print(f"off the engine import graph: {len(off)} modules, "
          f"{sum(lines(path_of[m]) for m in off)} lines")
    for m in off:
        print(f"  {lines(path_of[m]):6d}  {m}")
    helpers = unreferenced_helpers(path_of)
    print(f"unreferenced helpers: {len(helpers)}")
    for h in helpers:
        print(f"  {h}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001")
